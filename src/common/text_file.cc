#include "src/common/text_file.h"

#include <cstdio>

namespace tiger {

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int closed = std::fclose(f);
  return written == text.size() && closed == 0;
}

}  // namespace tiger
