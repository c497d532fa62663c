// The benches' BENCH_*.json artifacts: each bench lays its document out with printf
// formats into one string, then writes it through WriteTextFile, so a file that does not
// land (unopenable path, full device) fails the bench instead of printing "wrote ...".
#ifndef HARMONY_BENCH_BENCH_JSON_H_
#define HARMONY_BENCH_BENCH_JSON_H_

#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <string>

#include "src/util/text_file.h"

namespace harmony {

// Appends printf-formatted text to `out`.
[[gnu::format(printf, 2, 3)]] inline void Appendf(std::string* out, const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list sizing;
  va_copy(sizing, args);
  const auto size = static_cast<std::size_t>(std::vsnprintf(nullptr, 0, format, sizing));
  va_end(sizing);
  const std::size_t start = out->size();
  out->resize(start + size + 1);  // room for vsnprintf's terminator, trimmed below
  std::vsnprintf(out->data() + start, size + 1, format, args);
  va_end(args);
  out->resize(start + size);
}

// Writes `text` to `path` and returns the bench's exit code: 0 after printing
// "wrote <path>", 1 after printing the write error to stderr.
inline int WriteBenchJson(const std::string& path, const std::string& text) {
  const Status written = WriteTextFile(path, text);
  if (!written.ok()) {
    std::cerr << written.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace harmony

#endif  // HARMONY_BENCH_BENCH_JSON_H_
