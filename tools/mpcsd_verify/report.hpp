// mpcsd-verify: report output.
//
// Human-readable findings go to stderr/stdout from main; this module writes
// the machine-readable JSON report that CI uploads as an artifact.
#pragma once

#include <string>
#include <string_view>

#include "diagnostics.hpp"

namespace mpcsd_verify {

/// Renders the full run as a JSON document; `files` is the number of
/// files analyzed.
[[nodiscard]] std::string render_json_report(const Diagnostics& diags,
                                             std::size_t files);

/// Writes `contents` to `path`; returns false on I/O failure.
[[nodiscard]] bool write_file(const std::string& path, std::string_view contents);

}  // namespace mpcsd_verify
