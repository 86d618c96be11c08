// bench/artifact.hpp: merging one section into the BENCH JSON artifact
// replaces that section's value and keeps every other section intact,
// whatever its position; malformed input is refused without touching
// the file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/artifact.hpp"

namespace nmspmm::bench {
namespace {

class ArtifactFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("bench_artifact_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              ".json"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void write(const std::string& text) const { std::ofstream(path_) << text; }
  [[nodiscard]] std::string read() const {
    std::ifstream is(path_);
    std::stringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
  }

  std::string path_;
};

// The committed layout: bench_resident's header members, then one
// member per merged section; values may span lines.
const char* const kThreeSections =
    "{\n"
    "  \"bench\": \"bench_resident\",\n"
    "  \"model\": {\"fused_ms\": 21.0, \"perf\": {\"supported\": false}},\n"
    "  \"serving_open\": {\"gate\": {\"offered_rps\": 200.00},\n"
    "    \"points\": [{\"rps\": 1e3, \"name\": \"a \\\"q\\\" }\"}]},\n"
    "  \"model_decode\": {\"points\": [{\"context\": 32}], \"ok\": true}\n"
    "}\n";

TEST_F(ArtifactFile, RemergingTheMiddleSectionKeepsEverySection) {
  write(kThreeSections);
  const auto before = parse_members(kThreeSections);
  ASSERT_TRUE(before.has_value());

  ASSERT_TRUE(merge_section(path_, "serving_open", "{\"gate\": null}"));
  const std::string merged = read();
  ASSERT_TRUE(is_valid_json(merged)) << merged;
  const auto after = parse_members(merged);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 4u);
  EXPECT_EQ((*after)[0], (*before)[0]);
  EXPECT_EQ((*after)[1], (*before)[1]);
  EXPECT_EQ((*after)[2].first, "serving_open");
  EXPECT_EQ((*after)[2].second, "{\"gate\": null}");
  EXPECT_EQ((*after)[3], (*before)[3]);
  for (const auto& [key, value] : *after) {
    EXPECT_TRUE(is_valid_json(value)) << key;
  }

  // Merging the same value again is a fixed point; a new section lands
  // last.
  ASSERT_TRUE(merge_section(path_, "serving_open", "{\"gate\": null}"));
  EXPECT_EQ(read(), merged);
  ASSERT_TRUE(merge_section(path_, "extra", "[1, 2]"));
  const auto extended = parse_members(read());
  ASSERT_TRUE(extended.has_value());
  ASSERT_EQ(extended->size(), 5u);
  EXPECT_EQ(extended->back().first, "extra");
}

TEST_F(ArtifactFile, UnchangedMembersKeepTheirTextVerbatim) {
  write(kThreeSections);
  const auto members = parse_members(kThreeSections);
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(format_members(*members), kThreeSections);
}

TEST_F(ArtifactFile, MalformedInputIsRefusedAndTheFileKept) {
  write(kThreeSections);
  EXPECT_FALSE(merge_section(path_, "model", "{\"fused_ms\": }"));
  EXPECT_FALSE(merge_section(path_, "model", "{} trailing"));
  EXPECT_EQ(read(), kThreeSections);

  const std::string truncated = "{\n  \"bench\": \"bench_resident\",\n";
  write(truncated);
  EXPECT_FALSE(merge_section(path_, "model", "{}"));
  EXPECT_EQ(read(), truncated);

  EXPECT_FALSE(merge_section(path_ + ".missing", "model", "{}"));
  EXPECT_FALSE(is_valid_json("[1,]"));
  EXPECT_FALSE(is_valid_json("{\"a\" 1}"));
  EXPECT_FALSE(is_valid_json("-"));
  EXPECT_TRUE(is_valid_json(" [1.5e-3, -2, \"\\\\\", {}, []] "));
}

}  // namespace
}  // namespace nmspmm::bench
