#include "parasitics/rcnet.hpp"

#include <cmath>
#include <vector>

namespace nw::para {

std::uint32_t RcNet::add_node(double cground, PinId pin) {
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  RcNode n;
  n.cground = cground;
  n.pin = pin;
  nodes_.push_back(n);
  return idx;
}

void RcNet::add_cap(std::uint32_t node, double c) {
  if (!(c >= 0.0) || !std::isfinite(c)) {
    throw std::invalid_argument("RcNet::add_cap: negative or non-finite capacitance");
  }
  nodes_.at(node).cground += c;
}

void RcNet::attach_pin(std::uint32_t node, PinId pin) {
  RcNode& n = nodes_.at(node);
  if (n.pin.valid()) throw std::invalid_argument("RcNet::attach_pin: node has a pin");
  n.pin = pin;
}

void RcNet::add_res(std::uint32_t a, std::uint32_t b, double r) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("RcNet::add_res: node index");
  }
  if (a == b) throw std::invalid_argument("RcNet::add_res: self-loop");
  if (!(r > 0.0) || !std::isfinite(r)) {
    throw std::invalid_argument("RcNet::add_res: non-positive or non-finite resistance");
  }
  ress_.push_back({a, b, r});
}

std::uint32_t RcNet::node_of_pin(PinId pin) const noexcept {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].pin == pin) return i;
  }
  return static_cast<std::uint32_t>(nodes_.size());
}

double RcNet::total_ground_cap() const noexcept {
  double c = 0.0;
  for (const auto& n : nodes_) c += n.cground;
  return c;
}

double RcNet::total_res() const noexcept {
  double r = 0.0;
  for (const auto& e : ress_) r += e.r;
  return r;
}

bool RcNet::is_tree() const {
  if (ress_.size() + 1 != nodes_.size()) return false;
  // Connectivity check from node 0.
  std::vector<std::vector<std::uint32_t>> adj(nodes_.size());
  for (const auto& e : ress_) {
    adj[e.a].push_back(e.b);
    adj[e.b].push_back(e.a);
  }
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<std::uint32_t> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const auto u = stack.back();
    stack.pop_back();
    for (const auto v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        stack.push_back(v);
      }
    }
  }
  return visited == nodes_.size();
}

void RcNet::scale(double cap_factor, double res_factor) {
  if (!(cap_factor > 0.0) || !std::isfinite(cap_factor) || !(res_factor > 0.0) ||
      !std::isfinite(res_factor)) {
    throw std::invalid_argument("RcNet::scale: non-positive or non-finite factor");
  }
  for (auto& n : nodes_) n.cground *= cap_factor;
  for (auto& e : ress_) e.r *= res_factor;
}

RcNet RcNet::lumped(double cap) {
  RcNet n;
  n.add_cap(0, cap);
  return n;
}

std::size_t Parasitics::add_coupling(NetId a, std::uint32_t node_a, NetId b,
                                     std::uint32_t node_b, double c) {
  if (a == b) throw std::invalid_argument("Parasitics::add_coupling: same net");
  if (node_a >= net(a).node_count() || node_b >= net(b).node_count()) {
    throw std::out_of_range("Parasitics::add_coupling: node index");
  }
  if (!(c > 0.0) || !std::isfinite(c)) {
    throw std::invalid_argument("Parasitics::add_coupling: non-positive or non-finite cap");
  }
  const std::size_t idx = caps_.size();
  caps_.push_back({a, node_a, b, node_b, c});
  incident_.at(a.index()).push_back(idx);
  incident_.at(b.index()).push_back(idx);
  return idx;
}

void Parasitics::pop_coupling() {
  if (caps_.empty()) throw std::logic_error("Parasitics::pop_coupling: no couplings");
  const std::size_t idx = caps_.size() - 1;
  const CouplingCap& cc = caps_.back();
  // add_coupling appends the new index to both incidence lists, so the
  // latest coupling is necessarily at their backs.
  auto& ia = incident_.at(cc.net_a.index());
  auto& ib = incident_.at(cc.net_b.index());
  if (ia.empty() || ia.back() != idx || ib.empty() || ib.back() != idx) {
    throw std::logic_error("Parasitics::pop_coupling: incidence out of sync");
  }
  ia.pop_back();
  ib.pop_back();
  caps_.pop_back();
}

double Parasitics::set_coupling_value(std::size_t index, double c) {
  if (index >= caps_.size()) {
    throw std::out_of_range("Parasitics::set_coupling_value: bad index");
  }
  if (!(c > 0.0) || !std::isfinite(c)) {
    throw std::invalid_argument("Parasitics::set_coupling_value: non-positive or non-finite cap");
  }
  const double old = caps_[index].c;
  caps_[index].c = c;
  return old;
}

double Parasitics::coupling_cap_of(NetId id) const {
  double c = 0.0;
  for (const auto i : couplings_of(id)) c += caps_[i].c;
  return c;
}

double Parasitics::total_cap(NetId id, double miller) const {
  return net(id).total_ground_cap() + miller * coupling_cap_of(id);
}

std::size_t Parasitics::memory_bytes() const noexcept {
  std::size_t bytes = nets_.capacity() * sizeof(RcNet) +
                      caps_.capacity() * sizeof(CouplingCap) +
                      incident_.capacity() * sizeof(std::vector<std::size_t>);
  for (const RcNet& n : nets_) bytes += n.memory_bytes();
  for (const auto& inc : incident_) bytes += inc.capacity() * sizeof(std::size_t);
  return bytes;
}

}  // namespace nw::para
