// SPEF-like parasitic exchange format (".nwspef").
//
// A simplified single-pass analogue of IEEE 1481 SPEF: per-net RC sections
// followed by a coupling section. Pin attachments are written as design
// pin names ("inst/PIN" or port names) and re-resolved against the Design
// on read, so a written file round-trips onto the same netlist.
//
// Round-trip contract: sections are written in NetId order and nets are
// named, so read_spef on what write_spef printed for (d, p) rebuilds p
// exactly against d (same node numbering, same coupling order), and
// writing it again gives the same bytes. Pair it with a netlist read back
// through read_netlist, which keeps NetIds, and a file-based run sees the
// same parasitics as the original.
//
// Cost: reading is linear in the file. Every name on a line (net, instance,
// pin, port) is one hashed Design/Cell lookup on a slice of the line, with
// no per-token string copies.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "netlist/design.hpp"
#include "parasitics/rcnet.hpp"

namespace nw::para {

void write_spef(std::ostream& os, const net::Design& design, const Parasitics& para);

/// Largest node count a `*NET` line may declare. The reader allocates the
/// declared nodes up front, so a larger count is rejected with a diagnostic
/// rather than attempted (2^20 nodes is 16 MB for one net).
inline constexpr std::size_t kMaxNetNodes = std::size_t{1} << 20;

/// Parse; throws std::runtime_error (with line number) on malformed input,
/// names that don't resolve against `design`, negative or non-finite
/// capacitances, non-positive or non-finite resistances, node indices out
/// of range, and node counts above kMaxNetNodes.
[[nodiscard]] Parasitics read_spef(std::istream& is, const net::Design& design);

}  // namespace nw::para
