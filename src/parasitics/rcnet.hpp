// Extracted parasitics: one RC tree per net plus inter-net coupling caps.
//
// Node 0 of every RC net is the driver (root). Load pins attach to nodes.
// Coupling capacitors are stored centrally (they belong to a *pair* of
// nets) with a per-net incidence index for fast aggressor lookup — the
// first step of noise analysis is "who couples to this victim?".
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/ids.hpp"

namespace nw::para {

struct RcNode {
  double cground = 0.0;  ///< grounded capacitance at this node [F]
  PinId pin;             ///< attached design pin, if any (loads/driver)
};

struct RcRes {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double r = 0.0;        ///< [ohm]
};

/// The RC network of a single net. Usually a tree rooted at node 0 (the
/// driver); the container does not enforce treeness — `is_tree()` reports
/// it and the reduction routines require it.
class RcNet {
 public:
  RcNet() { nodes_.push_back(RcNode{}); }  // node 0 = driver root

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t res_count() const noexcept { return ress_.size(); }
  [[nodiscard]] const RcNode& node(std::uint32_t i) const { return nodes_.at(i); }
  [[nodiscard]] const std::vector<RcRes>& resistors() const noexcept { return ress_; }

  /// Add a node with grounded cap and (optionally) an attached pin.
  std::uint32_t add_node(double cground = 0.0, PinId pin = {});
  /// Add grounded cap to an existing node (throws std::invalid_argument on
  /// a negative or non-finite value).
  void add_cap(std::uint32_t node, double c);
  /// Attach a pin to a node (throws if the node already has one).
  void attach_pin(std::uint32_t node, PinId pin);
  /// Add a resistor between two existing nodes (throws on a self-loop or a
  /// non-positive or non-finite value).
  void add_res(std::uint32_t a, std::uint32_t b, double r);

  /// Node a pin is attached to, or node_count() if absent.
  [[nodiscard]] std::uint32_t node_of_pin(PinId pin) const noexcept;

  /// ECO: scale every grounded cap by `cap_factor` and every resistance by
  /// `res_factor` (wire respacing / re-layering what-ifs). Factors must be
  /// positive and finite (throws std::invalid_argument). Coupling caps live in
  /// Parasitics and are not touched.
  void scale(double cap_factor, double res_factor);

  [[nodiscard]] double total_ground_cap() const noexcept;
  /// Sum of resistances (diagnostic).
  [[nodiscard]] double total_res() const noexcept;

  /// True iff the resistor graph is a connected tree spanning all nodes.
  [[nodiscard]] bool is_tree() const;

  /// Capacity-based heap bytes of this RC network.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return nodes_.capacity() * sizeof(RcNode) + ress_.capacity() * sizeof(RcRes);
  }

 private:
  std::vector<RcNode> nodes_;
  std::vector<RcRes> ress_;
};

/// A coupling capacitor between a node of net `a` and a node of net `b`.
struct CouplingCap {
  NetId net_a;
  std::uint32_t node_a = 0;
  NetId net_b;
  std::uint32_t node_b = 0;
  double c = 0.0;  ///< [F]

  [[nodiscard]] NetId other_net(NetId n) const noexcept {
    return n == net_a ? net_b : net_a;
  }
  [[nodiscard]] std::uint32_t node_on(NetId n) const noexcept {
    return n == net_a ? node_a : node_b;
  }
};

/// Parasitics for a whole design: RC net per NetId + the coupling list.
class Parasitics {
 public:
  explicit Parasitics(std::size_t net_count)
      : nets_(net_count), incident_(net_count) {}

  [[nodiscard]] std::size_t net_count() const noexcept { return nets_.size(); }

  [[nodiscard]] RcNet& net(NetId id) { return nets_.at(id.index()); }
  [[nodiscard]] const RcNet& net(NetId id) const { return nets_.at(id.index()); }

  /// Register a coupling cap; returns its index. Throws
  /// std::invalid_argument on a non-positive or non-finite value.
  std::size_t add_coupling(NetId a, std::uint32_t node_a, NetId b,
                           std::uint32_t node_b, double c);

  /// ECO: change an existing coupling cap's value in place (the incidence
  /// structure is untouched). Returns the previous value (the inverse
  /// edit). Throws std::out_of_range on a bad index and
  /// std::invalid_argument on a non-positive or non-finite value.
  double set_coupling_value(std::size_t index, double c);

  /// ECO: replace a net's RC network wholesale (bit-exact undo of scaling
  /// edits). The replacement must keep every attached pin so design
  /// lookups stay valid; callers swap in a previously captured copy.
  void replace_net(NetId id, RcNet rc) { nets_.at(id.index()) = std::move(rc); }

  /// ECO undo: remove the most recently added coupling cap (LIFO only, so
  /// incidence indices stay dense). Throws std::logic_error when empty.
  void pop_coupling();

  [[nodiscard]] const std::vector<CouplingCap>& couplings() const noexcept {
    return caps_;
  }
  [[nodiscard]] const CouplingCap& coupling(std::size_t i) const { return caps_.at(i); }

  /// Indices of coupling caps incident to a net.
  [[nodiscard]] std::span<const std::size_t> couplings_of(NetId id) const {
    return incident_.at(id.index());
  }

  /// Sum of coupling capacitance incident to a net [F].
  [[nodiscard]] double coupling_cap_of(NetId id) const;

  /// Grounded + coupling cap of a net [F]: the far side of every coupling
  /// is quiet AC ground (the standard noise/delay lumping).
  [[nodiscard]] double total_cap(NetId id) const;

  /// Capacity-based estimate of the heap bytes the parasitics own (RC
  /// trees, coupling list, incidence index). Feeds the "parasitics" memory
  /// account via a size-accounting hook.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  std::vector<RcNet> nets_;
  std::vector<CouplingCap> caps_;
  std::vector<std::vector<std::size_t>> incident_;
};

}  // namespace nw::para
