// Byte-compare against committed goldens in tests/golden/. Run-vs-run
// identity (1 vs 8 threads, re-run from scratch) cannot see a change that
// moves every byte the same way; a golden pins the bytes themselves.
//
// A mismatch or a missing golden fails the test and writes the actual
// bytes to <name>.actual in the working directory: diff it against the
// golden, or copy it over the golden to re-pin a deliberate change.

#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace sf {

inline void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(SF_GOLDEN_DIR) + "/" + name;
  std::ostringstream expected;
  expected << std::ifstream(path, std::ios::binary).rdbuf();
  if (expected.str() == actual) return;
  std::ofstream(name + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << "output differs from golden " << path
                << "; actual bytes written to " << name << ".actual";
}

}  // namespace sf
