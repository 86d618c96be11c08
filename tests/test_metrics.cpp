// Metrics export: Prometheus text exposition (line grammar, histogram
// bucket cumulativity), the JSON rendering, and the
// periodic MetricsExporter (timeline samples + atomic file rewrites).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

std::shared_ptr<const CompressedNM> shared_weights(index_t k, index_t n,
                                                   Rng& rng) {
  return std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, NMConfig{2, 4, 16}, rng));
}

// A server that has actually served traffic, so the exposition carries
// occupied histograms, per-shard counters, and nonzero totals.
Server::Stats served_stats() {
  Rng rng(61);
  auto b = shared_weights(64, 64, rng);
  ServerOptions opt;
  opt.num_shards = 2;
  opt.trace_sample_n = 1;
  Server server(opt);
  for (int i = 0; i < 16; ++i) {
    const MatrixF a = random_int_matrix(i % 4 == 0 ? 4 : 1, 64, rng);
    MatrixF c(a.rows(), 64);
    NMSPMM_EXPECT_OK(server.submit(a.view(), b, c.view()).get());
  }
  return server.stats();
}

// ------------------------------------------- exposition-format parser
//
// A deliberately strict reading of the text exposition grammar: every
// line is a comment (# HELP / # TYPE) or `name{labels} value`, names
// match [a-zA-Z_:][a-zA-Z0-9_:]*, label values are quoted with only
// escaped backslash/quote/newline inside, and the value parses as a
// number. Returns samples keyed by `name{labels}`.
struct Exposition {
  std::map<std::string, double> samples;
  std::vector<std::string> order;  ///< sample keys in document order
  std::map<std::string, std::string> types;
};

::testing::AssertionResult parse_exposition(const std::string& text,
                                            Exposition& out) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    return ::testing::AssertionFailure()
           << "line " << lineno << ": " << why << "\n  " << line;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ts(line.substr(7));
      std::string name, type;
      ts >> name >> type;
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary") {
        return fail("unknown TYPE " + type);
      }
      out.types[name] = type;
      continue;
    }
    if (line[0] == '#') return fail("unknown comment form");
    std::size_t i = 0;
    auto name_char = [](char c, bool first) {
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         c == '_' || c == ':';
      return alpha || (!first && c >= '0' && c <= '9');
    };
    while (i < line.size() && name_char(line[i], i == 0)) ++i;
    if (i == 0) return fail("sample line does not start with a metric name");
    const std::string name = line.substr(0, i);
    std::string labels;
    if (i < line.size() && line[i] == '{') {
      const std::size_t open = i;
      ++i;
      bool in_quotes = false;
      while (i < line.size()) {
        const char c = line[i];
        if (in_quotes) {
          if (c == '\\') {
            if (i + 1 >= line.size() ||
                (line[i + 1] != '\\' && line[i + 1] != '"' &&
                 line[i + 1] != 'n')) {
              return fail("invalid escape in label value");
            }
            i += 2;
            continue;
          }
          if (c == '\n') return fail("raw newline in label value");
          if (c == '"') in_quotes = false;
          ++i;
          continue;
        }
        if (c == '"') {
          in_quotes = true;
          ++i;
          continue;
        }
        if (c == '}') break;
        ++i;
      }
      if (i >= line.size() || line[i] != '}') {
        return fail("unterminated label set");
      }
      labels = line.substr(open, i - open + 1);
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      return fail("missing space before value");
    }
    const std::string value_str = line.substr(i + 1);
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(value_str, &consumed);
    } catch (...) {
      return fail("unparseable value '" + value_str + "'");
    }
    if (consumed != value_str.size()) {
      return fail("trailing junk after value");
    }
    const std::string key = name + labels;
    out.samples[key] = value;
    out.order.push_back(key);
  }
  return ::testing::AssertionSuccess();
}

TEST(Metrics, EmptyStatsRenderAValidExposition) {
  Exposition exp;
  const std::string text = obs::render_prometheus(Server::Stats{});
  ASSERT_TRUE(parse_exposition(text, exp)) << text;
  EXPECT_EQ(exp.samples.at("nmspmm_requests_total"), 0.0);
  EXPECT_EQ(exp.types.at("nmspmm_requests_total"), "counter");
  EXPECT_EQ(exp.types.at("nmspmm_stage_latency_us"), "histogram");
  EXPECT_EQ(exp.types.at("nmspmm_max_queue_depth"), "gauge");
}

TEST(Metrics, ServedStatsExpositionParsesAndShardsSumToTotals) {
  const Server::Stats stats = served_stats();
  const std::string text = obs::render_prometheus(stats);
  Exposition exp;
  ASSERT_TRUE(parse_exposition(text, exp)) << text;

  EXPECT_EQ(exp.samples.at("nmspmm_requests_total"),
            static_cast<double>(stats.totals.requests));
  EXPECT_EQ(exp.samples.at("nmspmm_trace_spans_total"),
            static_cast<double>(stats.trace_spans));
  // Per-shard samples exist and sum to the totals.
  double shard_sum = 0.0;
  for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
    shard_sum += exp.samples.at("nmspmm_shard_requests_total{shard=\"" +
                                std::to_string(i) + "\"}");
  }
  EXPECT_EQ(shard_sum, static_cast<double>(stats.totals.requests));
}

TEST(Metrics, HistogramBucketsAreCumulativeAndEndAtInf) {
  const Server::Stats stats = served_stats();
  const std::string text = obs::render_prometheus(stats);
  Exposition exp;
  ASSERT_TRUE(parse_exposition(text, exp)) << text;

  // Collect the bucket series per label set, in document order.
  struct Series {
    std::vector<std::pair<std::string, double>> buckets;  // (le, value)
    bool saw_inf = false;
  };
  std::map<std::string, Series> series;
  const std::string bucket_name = "nmspmm_stage_latency_us_bucket{";
  for (const std::string& key : exp.order) {
    if (key.rfind(bucket_name, 0) != 0) continue;
    const std::size_t le_pos = key.find("le=\"");
    ASSERT_NE(le_pos, std::string::npos) << key;
    const std::size_t le_end = key.find('"', le_pos + 4);
    const std::string le = key.substr(le_pos + 4, le_end - le_pos - 4);
    const std::string labels = key.substr(0, le_pos);  // class+stage prefix
    Series& s = series[labels];
    EXPECT_FALSE(s.saw_inf) << "+Inf must be the last bucket: " << key;
    s.buckets.emplace_back(le, exp.samples.at(key));
    if (le == "+Inf") s.saw_inf = true;
  }
  ASSERT_FALSE(series.empty());
  for (const auto& [labels, s] : series) {
    SCOPED_TRACE(labels);
    ASSERT_TRUE(s.saw_inf);
    double prev_value = -1.0;
    std::uint64_t prev_le = 0;
    for (const auto& [le, value] : s.buckets) {
      EXPECT_GE(value, prev_value) << "buckets must be cumulative at le=" << le;
      prev_value = value;
      if (le != "+Inf") {
        const std::uint64_t le_us = std::stoull(le);
        EXPECT_GT(le_us, prev_le) << "le bounds must increase";
        prev_le = le_us;
      }
    }
    // +Inf equals the series count sample.
    const std::string count_key =
        "nmspmm_stage_latency_us_count" +
        labels.substr(std::string("nmspmm_stage_latency_us_bucket").size());
    // labels ends with ',' inside the brace: count uses the same label
    // set without the trailing comma.
    std::string ck = count_key;
    const std::size_t comma = ck.rfind(',');
    ASSERT_NE(comma, std::string::npos);
    ck = ck.substr(0, comma) + "}";
    ASSERT_TRUE(exp.samples.count(ck)) << ck;
    EXPECT_EQ(s.buckets.back().second, exp.samples.at(ck));
  }
}

TEST(Metrics, JsonRenderingIsStructurallySound) {
  const Server::Stats stats = served_stats();
  const std::string json = obs::render_json(stats);
  // Cheap structural checks: balanced braces outside strings, the
  // expected top-level keys, a trailing newline.
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << json.substr(0, i + 1);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(json.back(), '\n');
  for (const char* key :
       {"\"totals\":", "\"per_shard\":", "\"latency\":", "\"trace_spans\":",
        "\"min_us\":", "\"p99_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(MetricsExporter, CollectsAMonotoneTimelineAndWritesFiles) {
  Rng rng(62);
  auto b = shared_weights(64, 64, rng);
  Server server(ServerOptions{});
  const std::string prom_path = ::testing::TempDir() + "exporter_test.prom";
  const std::string json_path = ::testing::TempDir() + "exporter_test.json";
  obs::MetricsExporter::Options opt;
  opt.interval_ms = 5;
  opt.prometheus_path = prom_path;
  opt.json_path = json_path;
  {
    obs::MetricsExporter exporter(server, opt);
    for (int i = 0; i < 20; ++i) {
      const MatrixF a = random_int_matrix(1, 64, rng);
      MatrixF c(1, 64);
      NMSPMM_EXPECT_OK(server.submit(a.view(), b, c.view()).get());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    exporter.stop();
    const auto samples = exporter.samples();
    ASSERT_GE(samples.size(), 2u);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_GE(samples[i].t_ms, samples[i - 1].t_ms);
      EXPECT_GE(samples[i].requests, samples[i - 1].requests);
      EXPECT_GE(samples[i].errors, samples[i - 1].errors);
    }
    // The stop() tick sampled the final state.
    EXPECT_EQ(samples.back().requests, 20u);
  }
  // Both files exist and the Prometheus one parses.
  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream ss;
  ss << prom.rdbuf();
  Exposition exp;
  ASSERT_TRUE(parse_exposition(ss.str(), exp)) << ss.str();
  EXPECT_EQ(exp.samples.at("nmspmm_requests_total"), 20.0);
  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::stringstream js;
  js << json.rdbuf();
  EXPECT_NE(js.str().find("\"totals\":"), std::string::npos);
}

TEST(MetricsExporter, StopIsIdempotentAndBoundsTheTimeline) {
  Server server(ServerOptions{});
  obs::MetricsExporter::Options opt;
  opt.interval_ms = 1;
  opt.max_samples = 4;
  obs::MetricsExporter exporter(server, opt);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exporter.stop();
  exporter.stop();
  EXPECT_LE(exporter.samples().size(), 4u);
  EXPECT_GE(exporter.samples().size(), 1u);
}

}  // namespace
}  // namespace nmspmm
