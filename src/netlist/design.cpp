#include "netlist/design.hpp"

#include <cmath>
#include <deque>
#include <stdexcept>

namespace nw::net {

namespace {

/// Port drive, slew and load values feed the delay and noise models
/// directly; a NaN there hangs the analysis or reads as "clean".
void require_port_value(const char* fn, std::string_view port, const char* what,
                        double v) {
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument("Design::" + std::string(fn) + ": negative or non-finite " +
                                what + " on port '" + std::string(port) + "'");
  }
}

}  // namespace

PinId Design::make_pin(Pin p) {
  const PinId id{pins_.size()};
  pins_.push_back(std::move(p));
  return id;
}

PinId Design::make_port(PinKind kind, std::string_view port_name, NetId net) {
  if (port_index_.contains(port_name)) {
    throw std::invalid_argument("Design: duplicate port '" + std::string(port_name) + "'");
  }
  Pin p;
  p.kind = kind;
  p.net = net;
  p.port_name = port_name;
  const PinId pid = make_pin(std::move(p));
  port_index_.emplace(port_name, pid);
  return pid;
}

NetId Design::add_net(std::string_view net_name) {
  if (net_index_.contains(net_name)) {
    throw std::invalid_argument("Design::add_net: duplicate net '" + std::string(net_name) +
                                "'");
  }
  const NetId id{nets_.size()};
  Net n;
  n.name = net_name;
  nets_.push_back(std::move(n));
  net_index_.emplace(net_name, id);
  return id;
}

InstId Design::add_instance(std::string_view inst_name, std::string_view cell_name) {
  if (inst_index_.contains(inst_name)) {
    throw std::invalid_argument("Design::add_instance: duplicate instance '" +
                                std::string(inst_name) + "'");
  }
  const auto cell_idx = lib_->find(cell_name);
  if (!cell_idx) {
    throw std::invalid_argument("Design::add_instance: unknown cell '" +
                                std::string(cell_name) + "'");
  }
  const InstId id{insts_.size()};
  Instance inst;
  inst.name = inst_name;
  inst.cell = *cell_idx;
  const lib::Cell& cell = lib_->cell(*cell_idx);
  inst.pins.reserve(cell.pins.size());
  for (std::size_t i = 0; i < cell.pins.size(); ++i) {
    Pin p;
    p.kind = PinKind::kInstance;
    p.inst = id;
    p.cell_pin = i;
    inst.pins.push_back(make_pin(std::move(p)));
  }
  insts_.push_back(std::move(inst));
  inst_index_.emplace(inst_name, id);
  if (cell.is_sequential()) seqs_.push_back(id);
  return id;
}

void Design::connect(InstId inst, std::string_view pin_name, NetId net) {
  const Instance& instance = insts_.at(inst.index());
  const lib::Cell& cell = lib_->cell(instance.cell);
  const auto pin_idx = cell.find_pin(pin_name);
  if (!pin_idx) {
    throw std::invalid_argument("Design::connect: cell '" + cell.name +
                                "' has no pin '" + std::string(pin_name) + "'");
  }
  const PinId pid = instance.pins.at(*pin_idx);
  Pin& p = pins_.at(pid.index());
  if (p.net.valid()) {
    throw std::invalid_argument("Design::connect: pin already connected: " +
                                this->pin_name(pid));
  }
  p.net = net;
  Net& n = nets_.at(net.index());
  if (cell.pins[*pin_idx].dir == lib::PinDir::kOutput) {
    if (n.driver.valid()) {
      throw std::invalid_argument("Design::connect: net '" + n.name +
                                  "' already has a driver");
    }
    n.driver = pid;
  } else {
    n.loads.push_back(pid);
  }
}

PinId Design::add_input_port(std::string_view port_name, NetId net, PortDrive drive) {
  require_port_value("add_input_port", port_name, "drive", drive.resistance);
  require_port_value("add_input_port", port_name, "slew", drive.slew);
  Net& n = nets_.at(net.index());
  if (n.driver.valid()) {
    throw std::invalid_argument("Design::add_input_port: net '" + n.name +
                                "' already has a driver");
  }
  const PinId pid = make_port(PinKind::kInputPort, port_name, net);
  n.driver = pid;
  in_ports_.push_back(pid);
  port_drives_.emplace(pid.value(), drive);
  return pid;
}

PinId Design::add_output_port(std::string_view port_name, NetId net, double load_cap) {
  require_port_value("add_output_port", port_name, "cap", load_cap);
  Net& n = nets_.at(net.index());
  const PinId pid = make_port(PinKind::kOutputPort, port_name, net);
  n.loads.push_back(pid);
  out_ports_.push_back(pid);
  port_caps_.emplace(pid.value(), load_cap);
  return pid;
}

std::size_t Design::swappable_cell(InstId inst, const std::string& cell_name) const {
  const Instance& instance = insts_.at(inst.index());
  const lib::Cell& old_cell = lib_->cell(instance.cell);
  const auto new_idx = lib_->find(cell_name);
  if (!new_idx) {
    throw std::invalid_argument("Design::set_instance_cell: unknown cell '" +
                                cell_name + "'");
  }
  const lib::Cell& new_cell = lib_->cell(*new_idx);
  const auto mismatch = [&](const std::string& what) {
    throw std::invalid_argument("Design::set_instance_cell: cell '" + cell_name +
                                "' is not footprint-compatible with '" +
                                old_cell.name + "' on '" + instance.name +
                                "' (" + what + ")");
  };
  if (new_cell.kind != old_cell.kind) mismatch("sequential kind differs");
  if (new_cell.pins.size() != old_cell.pins.size()) mismatch("pin count differs");
  for (std::size_t i = 0; i < old_cell.pins.size(); ++i) {
    if (new_cell.pins[i].name != old_cell.pins[i].name) mismatch("pin names differ");
    if (new_cell.pins[i].dir != old_cell.pins[i].dir) mismatch("pin directions differ");
    if (new_cell.pins[i].role != old_cell.pins[i].role) mismatch("pin roles differ");
  }
  return *new_idx;
}

std::string Design::set_instance_cell(InstId inst, const std::string& cell_name) {
  const std::size_t new_idx = swappable_cell(inst, cell_name);
  Instance& instance = insts_[inst.index()];
  std::string old_name = lib_->cell(instance.cell).name;
  instance.cell = new_idx;
  return old_name;
}

std::optional<NetId> Design::find_net(std::string_view net_name) const {
  const auto it = net_index_.find(net_name);
  if (it == net_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<InstId> Design::find_instance(std::string_view inst_name) const {
  const auto it = inst_index_.find(inst_name);
  if (it == inst_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<PinId> Design::find_port(std::string_view port_name) const {
  const auto it = port_index_.find(port_name);
  if (it == port_index_.end()) return std::nullopt;
  return it->second;
}

std::string Design::pin_name(PinId id) const {
  const Pin& p = pin(id);
  if (p.kind != PinKind::kInstance) return p.port_name;
  return instance(p.inst).name + "/" + cell_of(p.inst).pins[p.cell_pin].name;
}

double Design::pin_cap(PinId id) const {
  const Pin& p = pin(id);
  switch (p.kind) {
    case PinKind::kInstance:
      return lib_pin(id).cap;
    case PinKind::kOutputPort: {
      const auto it = port_caps_.find(id.value());
      return it == port_caps_.end() ? 0.0 : it->second;
    }
    case PinKind::kInputPort:
      return 0.0;
  }
  return 0.0;
}

const PortDrive& Design::port_drive(PinId id) const {
  const auto it = port_drives_.find(id.value());
  if (it == port_drives_.end()) {
    throw std::invalid_argument("Design::port_drive: not an input port pin");
  }
  return it->second;
}

double Design::driver_resistance(NetId net_id, bool holding) const {
  const Net& n = net(net_id);
  if (!n.driver.valid()) {
    throw std::invalid_argument("Design::driver_resistance: undriven net '" + n.name + "'");
  }
  const Pin& drv = pin(n.driver);
  if (drv.kind == PinKind::kInputPort) return port_drive(n.driver).resistance;
  const lib::Cell& cell = cell_of(drv.inst);
  return holding ? cell.holding_resistance : cell.drive_resistance;
}

std::vector<std::string> Design::lint() const {
  std::vector<std::string> problems;
  for (std::size_t i = 0; i < pins_.size(); ++i) {
    if (!pins_[i].net.valid()) {
      problems.push_back("unconnected pin: " + pin_name(PinId{i}));
    }
  }
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (!nets_[i].driver.valid()) {
      problems.push_back("undriven net: " + nets_[i].name);
    }
    if (nets_[i].loads.empty()) {
      problems.push_back("unloaded net: " + nets_[i].name);
    }
  }
  return problems;
}

std::vector<InstId> Design::topological_order() const {
  // Kahn's algorithm over combinational fanin edges. An instance's inputs
  // that are driven by ports or sequential outputs don't create
  // dependencies; a DFF/latch instance itself has no combinational
  // input->output path, so it is a source for ordering purposes.
  std::vector<std::size_t> fanin_pending(insts_.size(), 0);
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    const lib::Cell& cell = lib_->cell(insts_[i].cell);
    if (cell.is_sequential()) continue;  // sources
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kInput) continue;
      const Pin& p = pins_[insts_[i].pins[pi].index()];
      if (!p.net.valid()) continue;
      const PinId drv = nets_[p.net.index()].driver;
      if (!drv.valid()) continue;
      const Pin& d = pins_[drv.index()];
      if (d.kind == PinKind::kInstance && !lib_->cell(insts_[d.inst.index()].cell).is_sequential()) {
        ++fanin_pending[i];
      }
    }
  }

  std::deque<InstId> ready;
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    if (fanin_pending[i] == 0) ready.push_back(InstId{i});
  }

  std::vector<InstId> order;
  order.reserve(insts_.size());
  while (!ready.empty()) {
    const InstId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    const Instance& inst = insts_[id.index()];
    const lib::Cell& cell = lib_->cell(inst.cell);
    if (cell.is_sequential()) continue;  // Q edges don't gate combinational order
    for (std::size_t pi = 0; pi < cell.pins.size(); ++pi) {
      if (cell.pins[pi].dir != lib::PinDir::kOutput) continue;
      const Pin& p = pins_[inst.pins[pi].index()];
      if (!p.net.valid()) continue;
      for (const PinId load : nets_[p.net.index()].loads) {
        const Pin& lp = pins_[load.index()];
        if (lp.kind != PinKind::kInstance) continue;
        const std::size_t li = lp.inst.index();
        if (lib_->cell(insts_[li].cell).is_sequential()) continue;
        if (--fanin_pending[li] == 0) ready.push_back(InstId{li});
      }
    }
  }

  if (order.size() != insts_.size()) {
    for (std::size_t i = 0; i < insts_.size(); ++i) {
      if (fanin_pending[i] > 0) {
        throw std::runtime_error("Design::topological_order: combinational loop through '" +
                                 insts_[i].name + "'");
      }
    }
  }
  return order;
}

std::size_t Design::memory_bytes() const noexcept {
  // Capacity-based, like the other subsystem estimators: counts the heap
  // the containers hold, not just the bytes in use, because capacity is
  // what the process actually pays for.
  const auto string_bytes = [](const std::string& s) {
    return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
  };
  // unordered_map nodes: payload + hash-node overhead (next pointer +
  // cached hash), plus one bucket pointer each.
  constexpr std::size_t kMapNodeOverhead = 2 * sizeof(void*);
  std::size_t bytes = string_bytes(name_);
  bytes += nets_.capacity() * sizeof(Net);
  for (const Net& n : nets_) {
    bytes += string_bytes(n.name) + n.loads.capacity() * sizeof(PinId);
  }
  bytes += insts_.capacity() * sizeof(Instance);
  for (const Instance& i : insts_) {
    bytes += string_bytes(i.name) + i.pins.capacity() * sizeof(PinId);
  }
  bytes += pins_.capacity() * sizeof(Pin);
  for (const Pin& p : pins_) bytes += string_bytes(p.port_name);
  bytes += in_ports_.capacity() * sizeof(PinId);
  bytes += out_ports_.capacity() * sizeof(PinId);
  bytes += seqs_.capacity() * sizeof(InstId);
  const auto index_bytes = [&](const auto& index) {
    std::size_t b = index.bucket_count() * sizeof(void*);
    for (const auto& [name, id] : index) {
      b += string_bytes(name) + sizeof(name) + sizeof(id) + kMapNodeOverhead;
    }
    return b;
  };
  bytes += index_bytes(net_index_) + index_bytes(inst_index_) + index_bytes(port_index_);
  bytes += port_drives_.size() * (sizeof(PinId::value_type) + sizeof(PortDrive) + kMapNodeOverhead);
  bytes += port_caps_.size() * (sizeof(PinId::value_type) + sizeof(double) + kMapNodeOverhead);
  bytes += port_drives_.bucket_count() * sizeof(void*);
  bytes += port_caps_.bucket_count() * sizeof(void*);
  return bytes;
}

}  // namespace nw::net
