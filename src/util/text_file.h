// The one way reports reach disk: write the whole text, close, then check. Closing first
// matters: a full device only fails when the last buffer is flushed.
#ifndef HARMONY_SRC_UTIL_TEXT_FILE_H_
#define HARMONY_SRC_UTIL_TEXT_FILE_H_

#include <string>
#include <string_view>

#include "src/util/status.h"

namespace harmony {

// Replaces the file at `path` with `text`. INTERNAL error when the file cannot be opened or
// any byte of it fails to land (including the final flush on close).
Status WriteTextFile(const std::string& path, std::string_view text);

}  // namespace harmony

#endif  // HARMONY_SRC_UTIL_TEXT_FILE_H_
