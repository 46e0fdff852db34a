#include "core/runtime_config.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace sf::core {
namespace {

bool parse_off(const char* env) {
  if (env == nullptr) return false;
  const std::string_view value(env);
  return value == "0" || value == "off" || value == "OFF";
}

std::size_t parse_entries(const char* env, std::size_t fallback) {
  if (env == nullptr) return fallback;
  if (parse_off(env)) return 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env) return fallback;  // non-numeric: default on
  return static_cast<std::size_t>(parsed);
}

}  // namespace

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig config;
  config.flow_cache_entries = parse_entries(std::getenv("SF_FLOW_CACHE"),
                                            config.flow_cache_entries);
  // "off"/"0" means "no batching", which in burst terms is a burst of 1.
  config.batch_size = std::max<std::size_t>(
      1, parse_entries(std::getenv("SF_BATCH"), config.batch_size));
  return config;
}

const RuntimeConfig& RuntimeConfig::process() {
  static const RuntimeConfig latched = from_env();
  return latched;
}

}  // namespace sf::core
