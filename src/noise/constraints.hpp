// Logic (functional) filtering constraints.
//
// Temporal filtering (windows) is one half of pessimism reduction; the
// other is functional: some aggressor sets can never switch in the same
// cycle regardless of timing — complementary bus phases, one-hot select
// lines, clock-gated groups. noisewin models the common industrial form:
// *mutual-exclusion groups*, sets of nets of which at most one switches
// per cycle. During combination, at most the heaviest active member of
// each group contributes: kernels::combine_flat runs the grouped scan
// scan_events_max_overlap_grouped (util/scanline.hpp).
#pragma once

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace nw::noise {

class Constraints {
 public:
  [[nodiscard]] bool empty() const noexcept { return group_of_.empty(); }

  /// Every (net value, group) assignment, sorted by net — a deterministic
  /// enumeration for digests and serialization.
  [[nodiscard]] std::vector<std::pair<NetId::value_type, int>> entries() const {
    std::vector<std::pair<NetId::value_type, int>> out(group_of_.begin(),
                                                       group_of_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Declare a mutual-exclusion group; returns its id. A net may belong to
  /// at most one group (throws std::invalid_argument otherwise).
  int add_mutex_group(std::span<const NetId> nets);

  /// Group of a net, or -1 if unconstrained.
  [[nodiscard]] int group_of(NetId net) const noexcept {
    const auto it = group_of_.find(net.value());
    return it == group_of_.end() ? -1 : it->second;
  }

 private:
  std::unordered_map<NetId::value_type, int> group_of_;
  int next_group_ = 0;
};

inline int Constraints::add_mutex_group(std::span<const NetId> nets) {
  const int id = next_group_++;
  for (const NetId n : nets) {
    if (!group_of_.emplace(n.value(), id).second) {
      throw std::invalid_argument("Constraints: net already in a mutex group");
    }
  }
  return id;
}

}  // namespace nw::noise
