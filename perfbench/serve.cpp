// serve_mixed: traffic from one generator thread into one Server (one
// shard, serial engine) serving the decode_long layer: closed-loop
// decode sessions and open-loop prompts.
//
// Decode sessions run in a fixed number of slots, as clients of a
// server that caps concurrent sequences: each session begins a
// sequence, decodes its tokens one submit_decode at a time (each sent
// when the previous resolves, output fed back as input), then frees the
// sequence, and its slot begins the next session at once, so the new
// session's first step goes out with the other slots' next steps
// (admission at step boundaries). Prompts arrive on their own seeded
// schedule and submit their QKV projection (submit) and FFN block
// (submit_ffn) on arrival.
// The window is cut into equal slots, one prompt arriving at a seeded
// uniform time in each (a jittered grid, not Poisson: Poisson clumps let
// two or three large prompts queue back to back on some seeds and not
// others, and the decode tail followed those clumps from seed to seed).
// Session lengths and prompt sizes are evenly spaced over their ranges
// in seeded order, so every seed offers the same work in a different
// arrangement.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <thread>

#include "common.hpp"
#include "serve/server.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

/// Concurrent decode sessions. A fixed count keeps the decode batch at
/// this many rows. Were sessions to arrive on their own schedule, the
/// batch would follow the host's speed: slower steps keep sessions alive
/// longer, the batch grows and every step slows further.
constexpr std::size_t kSessionSlots = 4;
/// Distinct sessions (length and first input) the slots cycle through;
/// few enough that every run goes through all of them several times, so
/// no seed's run holds more long sessions (deeper attention) than another.
constexpr std::size_t kSessionSpecs = 8;
/// Prompt arrival rate; prompts take about a fifth of the shard's time, so
/// a host slowdown that hits their compute more than decode's memory
/// reads moves decode throughput little more than it moves the step.
constexpr double kPromptsPerS = 1.0;
constexpr int kMinSessionTokens = 32;
constexpr int kMaxSessionTokens = 256;
constexpr index_t kMinPromptRows = 64;
constexpr index_t kMaxPromptRows = 256;
/// Deadlines. A request that resolves later than this counts as failed
/// (a decode step from its send, a prompt from its due time), whatever
/// status it resolved with.
constexpr std::uint64_t kDecodeDeadlineUs = 1'000'000;
constexpr std::uint64_t kPromptDeadlineUs = 2'000'000;
constexpr index_t kMaxBatch = 16;
constexpr index_t kPageTokens = 64;
constexpr int kSetups = 9;
/// 1 in kTraceSampleN requests is traced in the traced run.
constexpr std::uint64_t kTraceSampleN = 8;
/// Every kCheckEvery-th prompt is re-run directly and compared.
constexpr std::size_t kCheckEvery = 5;
constexpr std::uint64_t kWarmSeq = 1;
constexpr std::size_t kPromptSlots = 8;

double tail_ms(const serve::StageSnapshot& s) {
  if (s.count == 0) return 0.0;
  const double q =
      s.count > 10 ? 1.0 - 10.0 / static_cast<double>(s.count) : 1.0;
  return static_cast<double>(s.percentile(q)) / 1e3;
}

/// @p status, or DEADLINE_EXCEEDED when the request took longer than
/// its deadline: the server still serves a late request and resolves it
/// Ok, but for the client it has failed.
Status in_time(Status status, double ms, std::uint64_t deadline_us) {
  if (!status.ok() || ms * 1e3 <= static_cast<double>(deadline_us)) {
    return status;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "resolved after %.3f ms, deadline %.0f ms",
                ms, static_cast<double>(deadline_us) / 1e3);
  return Status::DeadlineExceeded(buf);
}

struct SessionSpec {
  int tokens = 0;
  MatrixF x;
};

/// One slot's current session.
struct Session {
  bool live = false;
  int tokens = 0;
  std::uint64_t id = 0;
  int done = 0;
  MatrixF x, out;
  std::future<Status> pending;
  Clock::time_point sent;
};

struct Prompt {
  double due_s = 0.0;
  index_t rows = 0;
  MatrixF a;
  std::size_t slot = 0;
  std::future<Status> qkv, ffn;
};

/// Output buffers of one in-flight prompt, reused across prompts.
struct PromptSlot {
  MatrixF qkv, ffn;
};

/// Evenly spaced values over [lo, hi], in seeded order.
std::vector<int> spread(std::size_t count, int lo, int hi, Rng& rng) {
  std::vector<int> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = count > 1 ? lo + static_cast<int>((static_cast<std::int64_t>(hi - lo) *
                                              static_cast<std::int64_t>(i)) /
                                             static_cast<std::int64_t>(count - 1))
                     : lo;
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
  return v;
}

/// One arrival at a uniform time in each of @p count equal slots of
/// @p window seconds, in time order.
std::vector<double> arrivals(std::size_t count, double window, Rng& rng) {
  std::vector<double> t(count);
  const double slot = window / static_cast<double>(count);
  for (std::size_t i = 0; i < count; ++i) {
    t[i] = (static_cast<double>(i) + rng.next_double()) * slot;
  }
  return t;
}

struct ServingSetup {
  std::unique_ptr<Server> server;
  std::shared_ptr<model::DecoderPlan> decode;
  std::shared_ptr<model::ModelPlan> ffn;
  double plan_ms = 0.0;
};

Status set_up(const model::DecoderLayer& layer, const attn::KvCacheOptions& kv,
              bool trace, const MatrixF& warm, ServingSetup& out) {
  ServerOptions options;
  options.num_shards = 1;
  // The generator thread stands for many independent clients: serving a
  // decode step synchronously on it would stall every other arrival.
  options.bypass_single_rows = false;
  options.engine.num_threads = 1;
  options.engine.weight_store = std::make_shared<mem::WeightStore>();
  if (trace) {
    options.trace_sample_n = kTraceSampleN;
    options.trace_buffer_spans = 1 << 16;
  }
  out.server = std::make_unique<Server>(options);
  Engine& engine = out.server->engine();
  const auto p0 = Clock::now();
  auto decode = engine.plan_decoder(kMaxBatch, layer, kv);
  NMSPMM_RETURN_IF_ERROR(decode.status());
  out.decode = *decode;
  auto ffn = engine.plan_model(kMaxPromptRows, {layer.ffn});
  NMSPMM_RETURN_IF_ERROR(ffn.status());
  out.ffn = *ffn;
  // The plan buckets the prompts' QKV requests land in.
  SpmmOptions qkv_options;
  qkv_options.num_threads = engine.normalized_num_threads();
  for (index_t m = kMinPromptRows; m <= kMaxPromptRows; m *= 2) {
    NMSPMM_RETURN_IF_ERROR(engine.plan_for(m, layer.qkv, qkv_options).status());
  }
  out.plan_ms = ms_between(p0, Clock::now());

  // Warm-up: one request of each kind.
  const index_t hidden = layer.hidden();
  MatrixF row_out(1, hidden), qkv_out(kMinPromptRows, layer.qkv->cols),
      ffn_out(kMinPromptRows, hidden);
  NMSPMM_RETURN_IF_ERROR(out.decode->begin_sequence(kWarmSeq));
  NMSPMM_RETURN_IF_ERROR(out.server
                             ->submit_decode(kWarmSeq,
                                             warm.cview().block(0, 0, 1, hidden),
                                             out.decode, row_out.view())
                             .get());
  NMSPMM_RETURN_IF_ERROR(out.decode->free_sequence(kWarmSeq));
  const ConstViewF prompt = warm.cview().block(0, 0, kMinPromptRows, hidden);
  NMSPMM_RETURN_IF_ERROR(
      out.server->submit(prompt, layer.qkv, qkv_out.view(), qkv_options).get());
  NMSPMM_RETURN_IF_ERROR(
      out.server->submit_ffn(prompt, out.ffn, ffn_out.view()).get());
  return Status::Ok();
}

}  // namespace

int run_serve_mixed(const Args& args, Result& result) {
  Rng rng(args.seed);
  Hasher hash;
  const model::DecoderLayer layer = make_decoder_layer(rng, hash);
  const index_t hidden = layer.hidden();

  // The schedule and every input, generated before set-up.
  const double window = args.seconds;
  const auto prompt_count =
      static_cast<std::size_t>(kPromptsPerS * window + 0.5);
  std::vector<SessionSpec> specs(kSessionSpecs);
  {
    const std::vector<int> tokens =
        spread(kSessionSpecs, kMinSessionTokens, kMaxSessionTokens, rng);
    for (std::size_t i = 0; i < kSessionSpecs; ++i) {
      specs[i].tokens = tokens[i];
      specs[i].x = random_matrix(1, hidden, rng);
      hash.add_value(specs[i].tokens);
      hash.add(specs[i].x);
    }
  }
  std::vector<Prompt> prompts(prompt_count);
  {
    const std::vector<double> due = arrivals(prompt_count, window, rng);
    const std::vector<int> rows =
        spread(prompt_count, static_cast<int>(kMinPromptRows),
               static_cast<int>(kMaxPromptRows), rng);
    for (std::size_t i = 0; i < prompt_count; ++i) {
      Prompt& p = prompts[i];
      p.due_s = due[i];
      p.rows = rows[i];
      p.a = random_matrix(p.rows, hidden, rng);
      hash.add_value(p.due_s);
      hash.add(p.a);
    }
  }
  const MatrixF warm = random_matrix(kMinPromptRows, hidden, rng);
  result.note("inputs " + hash.hex());

  attn::KvCacheOptions kv;
  kv.page_tokens = kPageTokens;
  kv.max_tokens = static_cast<index_t>(kSessionSlots + 1) *
                  (kMaxSessionTokens + kPageTokens);

  // Set-up: server start, plan_decoder / plan_model / plan_for, one
  // warm-up request of each kind. Repeated; the last one serves.
  Samples setup_s;
  ServingSetup serving;
  for (int s = 0; s < kSetups; ++s) {
    serving = ServingSetup{};
    const auto t0 = Clock::now();
    const Status st = set_up(layer, kv, args.trace, warm, serving);
    if (!st.ok()) {
      result.check_failed("set-up: " + st.to_string());
      return 1;
    }
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }
  Server& server = *serving.server;
  const Engine::CacheStats cache_before = server.engine().cache_stats();

  // Prompt outputs: a fixed pool touched before the window, so peak RSS
  // does not follow the schedule; it grows only past kPromptSlots in
  // flight. A deque keeps addresses stable for the views requests hold.
  std::deque<PromptSlot> slots;
  std::vector<std::size_t> free_slots;
  const auto add_slot = [&] {
    slots.push_back({MatrixF(kMaxPromptRows, layer.qkv->cols),
                     MatrixF(kMaxPromptRows, hidden)});
    slots.back().qkv.zero();
    slots.back().ffn.zero();
    free_slots.push_back(slots.size() - 1);
  };
  for (std::size_t i = 0; i < kPromptSlots; ++i) add_slot();
  std::vector<std::size_t> live_prompts, checked;
  std::vector<MatrixF> checked_qkv, checked_ffn;
  std::vector<Session> sessions(kSessionSlots);
  Samples decode_ms, prefill_ms, lag_ms;
  std::size_t next_prompt = 0, sessions_begun = 0;
  double decode_tokens = 0.0, prompt_rows = 0.0;
  double kv_in_use_peak = 0.0;
  const std::size_t page_bytes = 2 * kPageTokens * layer.attn.kv_dim() * sizeof(float);

  const auto live_kv_bytes = [&] {
    double bytes = 0.0;
    for (const Session& s : sessions) {
      if (!s.live) continue;
      bytes += static_cast<double>((s.done + kPageTokens) / kPageTokens) *
               static_cast<double>(page_bytes);
    }
    return bytes;
  };
  const auto send_decode = [&](Session& s, Clock::time_point now) {
    s.sent = now;
    s.pending = server.submit_decode(s.id, s.x.cview(), serving.decode,
                                     s.out.view(), kDecodeDeadlineUs);
  };
  // The slot's next session: the next spec in turn, under a fresh id.
  const auto begin_session = [&](Session& s, Clock::time_point now) {
    const SessionSpec& spec = specs[sessions_begun % kSessionSpecs];
    s.id = 100 + sessions_begun++;
    s.tokens = spec.tokens;
    s.done = 0;
    s.x = spec.x;
    s.out = MatrixF(1, hidden);
    s.out.zero();
    s.live = result.op("begin_sequence", serving.decode->begin_sequence(s.id));
    if (s.live) send_decode(s, now);
  };

  const auto start = Clock::now();
  const auto due_at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const auto window_end = due_at(window);
  const auto give_up = due_at(window + 60.0);
  auto last_done = start;
  auto last_step = start;
  bool stuck = false;
  for (Session& s : sessions) begin_session(s, start);
  const auto any_live = [&] {
    return std::any_of(sessions.begin(), sessions.end(),
                       [](const Session& s) { return s.live; });
  };
  while (next_prompt < prompts.size() || any_live() || !live_prompts.empty()) {
    auto now = Clock::now();
    if (now > give_up) {
      stuck = true;
      break;
    }
    bool progressed = false;

    // Prompts that are due.
    while (next_prompt < prompts.size() &&
           due_at(prompts[next_prompt].due_s) <= now) {
      const std::size_t i = next_prompt++;
      Prompt& p = prompts[i];
      lag_ms.add(ms_between(due_at(p.due_s), now));
      progressed = true;
      if (free_slots.empty()) add_slot();
      p.slot = free_slots.back();
      free_slots.pop_back();
      PromptSlot& slot = slots[p.slot];
      p.qkv = server.submit(p.a.cview(), layer.qkv,
                            slot.qkv.view().block(0, 0, p.rows, layer.qkv->cols),
                            SpmmOptions{}, kPromptDeadlineUs);
      p.ffn = server.submit_ffn(p.a.cview(), serving.ffn,
                                slot.ffn.view().block(0, 0, p.rows, hidden),
                                kPromptDeadlineUs);
      live_prompts.push_back(i);
      now = Clock::now();
    }

    // Completions, whichever class resolves first. A slot whose session
    // ended begins its next one in the same pass, so its first step
    // joins the other slots' next steps; at the end of the window the
    // slots stop.
    for (Session& s : sessions) {
      if (!s.live || s.pending.wait_for(std::chrono::seconds(0)) !=
                         std::future_status::ready) {
        continue;
      }
      progressed = true;
      now = Clock::now();
      last_done = now;
      last_step = now;
      const Status st = s.pending.get();
      ++s.done;
      const double ms = ms_between(s.sent, now);
      if (result.op("decode", in_time(st, ms, kDecodeDeadlineUs))) {
        decode_ms.add(ms);
        decode_tokens += 1.0;
      } else {
        decode_ms.add(kMissedMs);
      }
      const bool open = now < window_end;
      if (s.done < s.tokens && st.ok() && open) {
        std::swap(s.x, s.out);  // autoregressive feedback
        send_decode(s, now);
        continue;
      }
      result.op("free_sequence", serving.decode->free_sequence(s.id));
      s.live = false;
      if (open) begin_session(s, now);
    }
    for (std::size_t k = 0; k < live_prompts.size();) {
      Prompt& p = prompts[live_prompts[k]];
      if (p.qkv.wait_for(std::chrono::seconds(0)) != std::future_status::ready ||
          p.ffn.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      progressed = true;
      now = Clock::now();
      last_done = now;
      const double ms = ms_between(due_at(p.due_s), now);
      const bool qkv_ok =
          result.op("prompt_qkv", in_time(p.qkv.get(), ms, kPromptDeadlineUs));
      const bool ffn_ok =
          result.op("prompt_ffn", in_time(p.ffn.get(), ms, kPromptDeadlineUs));
      if (qkv_ok && ffn_ok) {
        prefill_ms.add(ms);
        prompt_rows += static_cast<double>(p.rows);
      } else {
        prefill_ms.add(kMissedMs);
      }
      const std::size_t index = live_prompts[k];
      if (qkv_ok && ffn_ok && index % kCheckEvery == 0) {
        const PromptSlot& slot = slots[p.slot];
        checked.push_back(index);
        checked_qkv.emplace_back(p.rows, layer.qkv->cols);
        checked_ffn.emplace_back(p.rows, hidden);
        std::memcpy(checked_qkv.back().data(), slot.qkv.data(),
                    static_cast<std::size_t>(p.rows) * layer.qkv->cols *
                        sizeof(float));
        std::memcpy(checked_ffn.back().data(), slot.ffn.data(),
                    static_cast<std::size_t>(p.rows) * hidden * sizeof(float));
      }
      free_slots.push_back(p.slot);
      live_prompts[k] = live_prompts.back();
      live_prompts.pop_back();
    }
    kv_in_use_peak = std::max(kv_in_use_peak, live_kv_bytes());
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  if (stuck) {
    result.check_failed("requests still unresolved 60 s after the window");
    return 1;
  }
  const double elapsed_s = ms_between(start, last_done) / 1e3;
  const Server::Stats stats = server.stats();
  const Engine::CacheStats cache = server.engine().cache_stats();
  if (cache.misses != cache_before.misses) {
    result.note("plans built during the measured window: " +
                std::to_string(cache.misses - cache_before.misses));
  }

  // Sampled prompts against a direct ModelPlan::run / Engine::spmm on the
  // same rows (the server is idle by now).
  Engine& engine = server.engine();
  for (std::size_t c = 0; c < checked.size(); ++c) {
    const Prompt& p = prompts[checked[c]];
    MatrixF qkv(p.rows, layer.qkv->cols), ffn(p.rows, hidden);
    SpmmOptions options;
    options.num_threads = engine.normalized_num_threads();
    const Status qs = engine.spmm(p.a.cview(), layer.qkv, qkv.view(), options);
    const Status fs = serving.ffn->run(p.a.cview(), ffn.view());
    if (!qs.ok() || !fs.ok() || !same_bits(qkv.cview(), checked_qkv[c].cview()) ||
        !same_bits(ffn.cview(), checked_ffn[c].cview())) {
      result.check_failed("served prompt " + std::to_string(checked[c]) +
                          " differs from a direct run");
    }
  }
  result.note("prompts checked " + std::to_string(checked.size()) +
              ", sessions " + std::to_string(sessions_begun) + ", prompts " +
              std::to_string(prompt_count));
  result.samples("setup_s", setup_s);
  result.samples("latency_ms", decode_ms);
  result.note_value("latency_ms_p50", decode_ms.p50());
  result.samples("prefill_ms", prefill_ms);
  result.samples("lag_ms", lag_ms);

  const double flops = decode_tokens * layer_flops_per_token(layer) +
                       prompt_rows * (useful_flops(1, *layer.qkv) +
                                      useful_flops(1, *layer.ffn.gate) +
                                      useful_flops(1, *layer.ffn.up) +
                                      useful_flops(1, *layer.ffn.down));
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "decode_ms max %.3f; prefill_ms p50 %.3f tail %.3f max %.3f; "
                "lag_ms p50 %.3f tail %.3f; server slo_violations %llu",
                decode_ms.max(), prefill_ms.p50(), prefill_ms.tail(),
                prefill_ms.max(), lag_ms.p50(), lag_ms.tail(),
                static_cast<unsigned long long>(stats.totals.slo_violations));
  result.note(buf);
  if (!args.trace) {
    result.metric("setup_s", setup_s.p50(), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // Decode runs closed loop, so its tokens per second is what the
    // shard sustains beside the prompts; gflops adds the prompts' work,
    // which is the offered load.
    result.metric("gflops", flops / elapsed_s / 1e9, "GFLOP/s");
    result.metric("tokens_per_s",
                  decode_tokens / (ms_between(start, last_step) / 1e3), "1/s");
    result.metric("latency_ms_p50", decode_ms.p50(), "ms");
    result.metric("latency_ms_tail", decode_ms.tail(), "ms");
    return 0;
  }

  result.metric("core.plan_cache.hits", static_cast<double>(cache.hits),
                "count");
  result.metric("core.plan_cache.misses", static_cast<double>(cache.misses),
                "count");
  const model::DecoderPlan::Stats dstats = serving.decode->stats();
  const mem::WeightStore::Stats store = engine.weight_store()->stats();
  result.metric("mem.plan_ms", serving.plan_ms, "ms");
  result.metric("mem.weight_mb",
                mb(static_cast<double>(dstats.weight_bytes +
                                       dstats.ffn.weight_bytes)),
                "MB");
  result.metric("mem.packed_mb", mb(static_cast<double>(store.resident_bytes)),
                "MB");
  result.metric("mem.store.misses", static_cast<double>(store.misses), "count");
  result.metric("mem.store.repacks", static_cast<double>(store.repacks),
                "count");
  result.metric("attn.kv.resident_mb",
                mb(static_cast<double>(dstats.kv.resident_bytes)), "MB");
  result.metric("attn.kv.in_use_mb", mb(kv_in_use_peak), "MB");
  result.metric("attn.kv.pages_allocated",
                static_cast<double>(dstats.kv.pages_allocated), "count");
  result.metric("attn.kv.pages_recycled",
                static_cast<double>(dstats.kv.pages_recycled), "count");

  const struct {
    const char* name;
    serve::RequestClass cls;
  } classes[] = {{"decode", serve::RequestClass::kDecode},
                 {"prefill", serve::RequestClass::kPrefill}};
  const struct {
    const char* name;
    serve::Stage stage;
  } stages[] = {{"queue", serve::Stage::kQueue},
                {"gather", serve::Stage::kGather},
                {"execute", serve::Stage::kExecute}};
  for (const auto& c : classes) {
    for (const auto& st : stages) {
      const serve::StageSnapshot& snap = stats.latency.stage(c.cls, st.stage);
      const std::string name =
          std::string("serve.") + c.name + "." + st.name + "_ms";
      result.metric(name + "_p50", static_cast<double>(snap.p50()) / 1e3, "ms");
      result.metric(name + "_tail", tail_ms(snap), "ms");
    }
  }
  const Server::GroupStats decode_group = server.decode_stats(serving.decode.get());
  result.metric("serve.decode.rows_per_batch",
                decode_group.batches > 0
                    ? static_cast<double>(decode_group.rows - decode_group.bypassed) /
                          static_cast<double>(decode_group.batches)
                    : 0.0,
                "rows");
  result.metric("serve.flush.full", static_cast<double>(stats.totals.full_flushes),
                "count");
  result.metric("serve.flush.timeout",
                static_cast<double>(stats.totals.timeout_flushes), "count");
  result.metric("serve.flush.slo", static_cast<double>(stats.totals.slo_flushes),
                "count");
  result.metric("serve.bypassed", static_cast<double>(stats.totals.bypassed),
                "count");
  result.metric("serve.errors", static_cast<double>(stats.totals.errors),
                "count");
  result.metric("serve.ring_stalls", static_cast<double>(stats.ring_stalls),
                "count");
  result.metric("serve.shed", static_cast<double>(stats.shed_requests), "count");
  result.metric("loadgen.lag_ms_p50", lag_ms.p50(), "ms");
  result.metric("loadgen.lag_ms_tail", lag_ms.tail(), "ms");
  result.metric("loadgen.prefill_ms_p50", prefill_ms.p50(), "ms");
  result.metric("loadgen.prefill_ms_tail", prefill_ms.tail(), "ms");
  result.metric("obs.trace_spans", static_cast<double>(stats.trace_spans),
                "count");
  result.metric("obs.trace_drops", static_cast<double>(stats.trace_drops),
                "count");
  const std::string trace_path = args.out_dir + "/trace_serve_mixed.json";
  const Status ds = server.dump_trace(trace_path);
  if (!ds.ok()) {
    result.check_failed("dump_trace: " + ds.to_string());
  } else {
    result.note("trace " + trace_path);
  }
  return 0;
}

}  // namespace perfbench
