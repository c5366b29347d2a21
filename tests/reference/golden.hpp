#pragma once
// Byte-exact comparison against a golden file in tests/golden/ (the
// SHERIFF_GOLDEN_DIR every test target is compiled with). With
// SHERIFF_REGEN_GOLDENS=1 the file is rewritten instead and the check
// passes, so a regen run is also a smoke test of the pipeline.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace sheriff::reference {

inline void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(SHERIFF_GOLDEN_DIR) + "/" + name;
  const char* regen = std::getenv("SHERIFF_REGEN_GOLDENS");
  if (regen != nullptr && std::string(regen) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with SHERIFF_REGEN_GOLDENS=1";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual)
      << "output of " << name
      << " drifted; if intentional, regenerate with SHERIFF_REGEN_GOLDENS=1 "
         "and review the golden diff";
}

}  // namespace sheriff::reference
