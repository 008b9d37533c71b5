/**
 * @file
 * String escaping for the JSON documents the tools write by hand
 * (`dioscc --json`, diagnostics, bench reports).
 */
#pragma once

#include <string>
#include <string_view>

namespace diospyros {

/**
 * Escapes `s` for the inside of a JSON string literal: `"` and `\` get a
 * backslash, newline and tab become `\n` and `\t`, and every other byte
 * below 0x20 becomes `\u00XX`. All other bytes, UTF-8 sequences
 * included, pass through unchanged.
 */
std::string json_escape(std::string_view s);

}  // namespace diospyros
