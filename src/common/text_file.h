// The one checked way to turn a string into a file.

#ifndef SRC_COMMON_TEXT_FILE_H_
#define SRC_COMMON_TEXT_FILE_H_

#include <string>

namespace tiger {

// Creates or truncates `path` and writes `text` to it. Returns true only if
// the open, every byte of the write and the final flush-and-close succeed, so
// a full disk or a bad path never passes for a complete file.
bool WriteTextFile(const std::string& path, const std::string& text);

}  // namespace tiger

#endif  // SRC_COMMON_TEXT_FILE_H_
