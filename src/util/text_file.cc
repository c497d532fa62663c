#include "src/util/text_file.h"

#include <fstream>

namespace harmony {

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return InternalError("cannot open " + path + " for writing");
  }
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  file.close();
  if (!file) {
    return InternalError("failed writing " + path);
  }
  return Status::Ok();
}

}  // namespace harmony
