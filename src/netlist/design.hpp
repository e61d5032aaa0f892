// Gate-level design: instances of library cells wired by nets, plus
// primary ports. Single-driver nets (standard for signoff netlists).
//
// The Design owns all connectivity; parasitics, timing, and noise results
// live in sibling structures indexed by the same NetId/InstId/PinId spaces.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "library/library.hpp"
#include "util/ids.hpp"
#include "util/strings.hpp"

namespace nw::net {

enum class PinKind {
  kInstance,     ///< pin of a cell instance
  kInputPort,    ///< primary input: drives a net from outside
  kOutputPort,   ///< primary output: loads a net
};

struct Pin {
  PinKind kind = PinKind::kInstance;
  InstId inst;                  ///< valid iff kind == kInstance
  std::size_t cell_pin = 0;     ///< index into the cell's pin list
  NetId net;                    ///< connected net (may be invalid while building)
  std::string port_name;        ///< valid iff kind != kInstance
};

struct Instance {
  std::string name;
  std::size_t cell = 0;         ///< index into the library
  std::vector<PinId> pins;      ///< parallel to the cell's pin list
};

struct Net {
  std::string name;
  PinId driver;                 ///< the single driving pin (output/input-port)
  std::vector<PinId> loads;     ///< input pins and output ports
};

/// External characteristics of a primary input: how strongly it is driven
/// and how fast it transitions. Consumed by STA and noise analysis.
struct PortDrive {
  double resistance = 1e3;      ///< driver output resistance [ohm]
  double slew = 30e-12;         ///< transition time [s]
};

class Design {
 public:
  /// The library must outlive the design.
  explicit Design(const lib::Library& library, std::string name = "top")
      : lib_(&library), name_(std::move(name)) {}

  [[nodiscard]] const lib::Library& library() const noexcept { return *lib_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // ---- construction -------------------------------------------------------

  /// Create a net; throws on duplicate name.
  NetId add_net(std::string_view net_name);

  /// Create an instance of `cell_name` (throws if the cell is unknown or the
  /// instance name is a duplicate). Pins start unconnected.
  InstId add_instance(std::string_view inst_name, std::string_view cell_name);

  /// Connect instance pin `pin_name` to `net`. Output pins become the net's
  /// driver (throws if the net already has one); input pins become loads.
  void connect(InstId inst, std::string_view pin_name, NetId net);

  /// Create a primary input port driving `net` (throws if driven already,
  /// if any port already has this name, or if the drive resistance or slew
  /// is negative or non-finite).
  PinId add_input_port(std::string_view port_name, NetId net, PortDrive drive = {});

  /// Create a primary output port loading `net` (throws if any port already
  /// has this name, or if the load cap is negative or non-finite).
  PinId add_output_port(std::string_view port_name, NetId net, double load_cap = 5e-15);

  // ---- ECO mutation -------------------------------------------------------

  /// Swap an instance onto another library cell with the same footprint
  /// (driver up/down-sizing: INV_X1 -> INV_X2). The new cell must have the
  /// same pin names, directions, and roles, and the same sequential kind;
  /// connectivity is untouched. Returns the previous cell's name (the
  /// inverse edit). Throws std::invalid_argument on an unknown cell or a
  /// footprint mismatch.
  std::string set_instance_cell(InstId inst, const std::string& cell_name);

  /// The library index of `cell_name` when set_instance_cell(inst,
  /// cell_name) would accept it; throws the same std::invalid_argument
  /// otherwise. Mutates nothing, so a caller can validate a swap before
  /// paying for a copy of the design.
  [[nodiscard]] std::size_t swappable_cell(InstId inst, const std::string& cell_name) const;

  // ---- access -------------------------------------------------------------

  [[nodiscard]] std::size_t net_count() const noexcept { return nets_.size(); }
  [[nodiscard]] std::size_t instance_count() const noexcept { return insts_.size(); }
  [[nodiscard]] std::size_t pin_count() const noexcept { return pins_.size(); }

  [[nodiscard]] const Net& net(NetId id) const { return nets_.at(id.index()); }
  [[nodiscard]] const Instance& instance(InstId id) const { return insts_.at(id.index()); }
  [[nodiscard]] const Pin& pin(PinId id) const { return pins_.at(id.index()); }

  // Name lookups are hashed, O(1) expected, and take a std::string_view so
  // readers can pass a slice of the line without copying it.
  [[nodiscard]] std::optional<NetId> find_net(std::string_view net_name) const;
  [[nodiscard]] std::optional<InstId> find_instance(std::string_view inst_name) const;
  /// The input or output port pin named `port_name`.
  [[nodiscard]] std::optional<PinId> find_port(std::string_view port_name) const;

  /// The library cell of an instance.
  [[nodiscard]] const lib::Cell& cell_of(InstId id) const {
    return lib_->cell(instance(id).cell);
  }
  /// The library cell of an instance pin's owner (kInstance pins only).
  [[nodiscard]] const lib::Cell& cell_of(PinId id) const {
    return cell_of(pin(id).inst);
  }
  /// The library pin model behind a pin (kInstance pins only).
  [[nodiscard]] const lib::Pin& lib_pin(PinId id) const {
    const Pin& p = pin(id);
    return cell_of(p.inst).pins.at(p.cell_pin);
  }

  /// Human-readable "inst/PIN" or port name for diagnostics.
  [[nodiscard]] std::string pin_name(PinId id) const;

  /// Input pin capacitance presented by a pin to its net [F].
  [[nodiscard]] double pin_cap(PinId id) const;

  /// Port drive info for input-port pins.
  [[nodiscard]] const PortDrive& port_drive(PinId id) const;

  /// Output resistance of the pin driving `net`: the cell's drive (or
  /// holding) resistance for instance pins, the port drive resistance for
  /// input ports. Throws if the net is undriven.
  [[nodiscard]] double driver_resistance(NetId net, bool holding) const;

  [[nodiscard]] const std::vector<PinId>& input_ports() const noexcept { return in_ports_; }
  [[nodiscard]] const std::vector<PinId>& output_ports() const noexcept { return out_ports_; }

  /// All sequential (DFF/latch) instances.
  [[nodiscard]] const std::vector<InstId>& sequentials() const noexcept { return seqs_; }

  // ---- structure ----------------------------------------------------------

  /// Verify all pins are connected and every net has a driver; returns a
  /// list of problems (empty = clean).
  [[nodiscard]] std::vector<std::string> lint() const;

  /// Topological order of instances over combinational arcs (sequential
  /// outputs and ports act as sources). Throws std::runtime_error on a
  /// combinational loop, naming an instance on the cycle.
  [[nodiscard]] std::vector<InstId> topological_order() const;

  /// Capacity-based estimate of the heap bytes this design owns (nets,
  /// instances, pins, name indexes). Feeds the "design" memory account via
  /// a size-accounting hook — the connectivity containers keep their plain
  /// allocators.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  PinId make_pin(Pin p);
  /// Create a port pin on `net` and index its name; throws on a duplicate.
  PinId make_port(PinKind kind, std::string_view port_name, NetId net);

  const lib::Library* lib_;
  std::string name_;
  std::vector<Net> nets_;
  std::vector<Instance> insts_;
  std::vector<Pin> pins_;
  std::vector<PinId> in_ports_;
  std::vector<PinId> out_ports_;
  std::vector<InstId> seqs_;
  StringMap<NetId> net_index_;
  StringMap<InstId> inst_index_;
  StringMap<PinId> port_index_;
  std::unordered_map<PinId::value_type, PortDrive> port_drives_;
  std::unordered_map<PinId::value_type, double> port_caps_;
};

}  // namespace nw::net
