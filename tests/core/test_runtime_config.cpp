// sf::core::RuntimeConfig — the process's two throughput knobs. from_env()
// re-parses on every call (unlike the latched process() view), so these
// tests can drive the parser with setenv in-process. CI's byte-diff runs
// cover the latched semantics.

#include "core/runtime_config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace sf::core {
namespace {

// Sets one variable for the scope, restoring the prior value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* prior = std::getenv(name);
    had_prior_ = prior != nullptr;
    if (had_prior_) prior_ = prior;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_prior_) {
      ::setenv(name_, prior_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_prior_ = false;
  std::string prior_;
};

TEST(RuntimeConfig, DefaultsMatchUnsetEnvironment) {
  EnvGuard cache("SF_FLOW_CACHE", nullptr);
  EnvGuard batch("SF_BATCH", nullptr);
  const RuntimeConfig parsed = RuntimeConfig::from_env();
  const RuntimeConfig defaults;
  EXPECT_EQ(parsed.flow_cache_entries, defaults.flow_cache_entries);
  EXPECT_EQ(parsed.flow_cache_entries, std::size_t{1} << 12);
  EXPECT_EQ(parsed.batch_size, defaults.batch_size);
  EXPECT_EQ(parsed.batch_size, 32u);
}

TEST(RuntimeConfig, FlowCacheParsesLegacySemantics) {
  const auto entries_for = [](const char* value) {
    EnvGuard cache("SF_FLOW_CACHE", value);
    return RuntimeConfig::from_env().flow_cache_entries;
  };
  EXPECT_EQ(entries_for("0"), 0u);        // disabled
  EXPECT_EQ(entries_for("off"), 0u);
  EXPECT_EQ(entries_for("OFF"), 0u);
  EXPECT_EQ(entries_for("512"), 512u);
  EXPECT_EQ(entries_for("1048576"), 1u << 20);
  EXPECT_EQ(entries_for("banana"), 1u << 12);  // garbage -> default
  EXPECT_EQ(entries_for(""), 1u << 12);
}

// Knobs set independently: parsing one variable never disturbs another.
TEST(RuntimeConfig, GatesAreIndependent) {
  EnvGuard cache("SF_FLOW_CACHE", "0");
  EnvGuard batch("SF_BATCH", nullptr);
  RuntimeConfig parsed = RuntimeConfig::from_env();
  EXPECT_EQ(parsed.flow_cache_entries, 0u);
  EXPECT_EQ(parsed.batch_size, 32u);

  EnvGuard cache_default("SF_FLOW_CACHE", nullptr);
  EnvGuard scalar("SF_BATCH", "off");
  parsed = RuntimeConfig::from_env();
  EXPECT_EQ(parsed.flow_cache_entries, std::size_t{1} << 12);
  EXPECT_EQ(parsed.batch_size, 1u);  // "off" is a burst of one
}

}  // namespace
}  // namespace sf::core
