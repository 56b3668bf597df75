#include "report.hpp"

#include <fstream>

namespace mpcsd_verify {
namespace {

void append_json_string(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          *out += "\\u00";
          out->push_back(hex[(c >> 4) & 0xF]);
          out->push_back(hex[c & 0xF]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string render_json_report(const Diagnostics& diags, std::size_t files) {
  std::string out;
  out += "{\n  \"tool\": \"mpcsd_verify\"";
  out += ",\n  \"files\": " + std::to_string(files);
  out += ",\n  \"findings\": " + std::to_string(diags.size());
  out += ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"id\": ";
    append_json_string(&out, name_of(d.id));
    out += ", \"file\": ";
    append_json_string(&out, d.file);
    out += ", \"line\": " + std::to_string(d.line);
    out += ", \"detail\": ";
    append_json_string(&out, d.detail);
    out += "}";
  }
  out += diags.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool write_file(const std::string& path, std::string_view contents) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  return static_cast<bool>(f);
}

}  // namespace mpcsd_verify
