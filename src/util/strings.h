// String helpers for the raw-log format and report printing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace leaps::util {

/// Split on a single character; empty fields are kept.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Split on runs of whitespace; empty fields are dropped.
std::vector<std::string_view> split_ws(std::string_view s);

std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a hexadecimal address of the form "0x1234abcd" or "1234abcd".
/// Returns false on malformed input.
bool parse_hex_u64(std::string_view s, std::uint64_t& out);

/// Parses an unsigned decimal of ASCII digits only. Returns false on empty
/// or malformed input and on values above UINT64_MAX.
bool parse_dec_u64(std::string_view s, std::uint64_t& out);

/// Formats an address as 0x%016x.
std::string hex_addr(std::uint64_t addr);

/// Fixed-point formatting with the given number of decimals (for tables).
std::string fixed(double v, int decimals);

}  // namespace leaps::util
