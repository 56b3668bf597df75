// mpcsd-verify: the conformance engine.
//
// The one implementation of the diagnostics.hpp catalog.  It needs nothing
// beyond the standard library, so the conformance gate builds everywhere
// the library does.  It analyzes one file at a time over the lexed token
// stream with enough structure recovered for this codebase's idioms:
// lambda introducers and capture lists are parsed, machine/stage bodies
// are identified by their context parameter types (`MachineContext&`,
// `StageContext<T>&`), declaration scanning resolves const-ness and
// unordered-container names, and every literal/comment is already out of
// the stream (the lexer dropped them), so prose can never trip a rule.
// The fixture self-test (--self-test) pins its verdicts.
#pragma once

#include <string>
#include <string_view>

#include "diagnostics.hpp"

namespace mpcsd_verify {

/// Analyzes one file's contents.  `path` is used for scope policy; it is
/// normalized internally.  Never throws on malformed input.
[[nodiscard]] Diagnostics analyze_file_tokens(std::string_view path,
                                              std::string_view source);

}  // namespace mpcsd_verify
