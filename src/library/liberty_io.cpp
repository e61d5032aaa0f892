#include "library/liberty_io.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace nw::lib {

namespace {

void write_doubles(std::ostream& os, std::span<const double> xs) {
  for (const double x : xs) os << ' ' << x;
}

void write_t1(std::ostream& os, const char* key, const Table1D& t) {
  os << key << " t1 " << t.size() << " ;";
  write_doubles(os, t.axis());
  os << " ;";
  write_doubles(os, t.values());
  os << "\n";
}

void write_t2(std::ostream& os, const char* key, const Table2D& t) {
  os << key << " t2 " << t.x_axis().size() << ' ' << t.y_axis().size() << " ;";
  write_doubles(os, t.x_axis());
  os << " ;";
  write_doubles(os, t.y_axis());
  os << " ;";
  write_doubles(os, t.values());
  os << "\n";
}

const char* sense_str(ArcSense s) {
  switch (s) {
    case ArcSense::kPositiveUnate: return "pos";
    case ArcSense::kNegativeUnate: return "neg";
    case ArcSense::kNonUnate: return "non";
  }
  return "neg";
}

ArcSense parse_sense(std::string_view s) {
  if (s == "pos") return ArcSense::kPositiveUnate;
  if (s == "neg") return ArcSense::kNegativeUnate;
  if (s == "non") return ArcSense::kNonUnate;
  throw std::invalid_argument("bad arc sense '" + std::string(s) + "'");
}

const char* kind_str(CellKind k) {
  switch (k) {
    case CellKind::kCombinational: return "comb";
    case CellKind::kDff: return "dff";
    case CellKind::kLatch: return "latch";
  }
  return "comb";
}

CellKind parse_kind(std::string_view s) {
  if (s == "comb") return CellKind::kCombinational;
  if (s == "dff") return CellKind::kDff;
  if (s == "latch") return CellKind::kLatch;
  throw std::invalid_argument("bad cell kind '" + std::string(s) + "'");
}

const char* role_str(PinRole r) {
  switch (r) {
    case PinRole::kNone: return "none";
    case PinRole::kClock: return "clock";
    case PinRole::kData: return "data";
    case PinRole::kEnable: return "enable";
  }
  return "none";
}

PinRole parse_role(std::string_view s) {
  if (s == "none") return PinRole::kNone;
  if (s == "clock") return PinRole::kClock;
  if (s == "data") return PinRole::kData;
  if (s == "enable") return PinRole::kEnable;
  throw std::invalid_argument("bad pin role '" + std::string(s) + "'");
}

/// Tokenized line reader with 1-based line numbers for error messages.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty, non-comment line split on whitespace; empty when EOF.
  std::vector<std::string_view> next() {
    tokens_.clear();
    while (std::getline(is_, line_)) {
      ++lineno_;
      const std::string_view t = nw::trim(line_);
      if (t.empty() || nw::starts_with(t, "#")) continue;
      tokens_ = nw::split(t);
      return tokens_;
    }
    return tokens_;
  }

  [[nodiscard]] int lineno() const noexcept { return lineno_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("nlib line " + std::to_string(lineno_) + ": " + msg);
  }

  /// A finite number; `what` names the field in the error.
  double number(std::string_view tok, std::string_view what) const {
    double v = 0.0;
    try {
      v = nw::parse_double(tok);
    } catch (const std::invalid_argument&) {
      fail("bad number '" + std::string(tok) + "' for " + std::string(what));
    }
    if (!std::isfinite(v)) fail(std::string(what) + " must be finite, got " + std::string(tok));
    return v;
  }

  /// A library, cell or pin scalar: finite and non-negative.
  double scalar(std::string_view tok, std::string_view what) const {
    const double v = number(tok, what);
    if (v < 0.0) fail(std::string(what) + " must be >= 0, got " + std::string(tok));
    return v;
  }

  /// A non-negative integer; `what` names the field in the error.
  std::size_t count(std::string_view tok, std::string_view what) const {
    try {
      return nw::parse_uint(tok);
    } catch (const std::invalid_argument&) {
      fail("bad integer '" + std::string(tok) + "' for " + std::string(what));
    }
  }

 private:
  std::istream& is_;
  std::string line_;
  std::vector<std::string_view> tokens_;
  int lineno_ = 0;
};

/// The size field toks[at] of a `kind` table. A size larger than the
/// number of tokens left on the line fails here, before it can size an
/// allocation.
std::size_t table_size(const LineReader& lr, std::span<const std::string_view> toks,
                       std::size_t at, const std::string& kind) {
  if (at >= toks.size()) lr.fail(kind + ": missing size");
  const std::size_t n = lr.count(toks[at], kind + " size");
  const std::size_t left = toks.size() - at - 1;
  if (n > left) {
    lr.fail(kind + ": size " + std::to_string(n) + " exceeds the " + std::to_string(left) +
            " tokens left on the line");
  }
  return n;
}

/// The group `; v1 ... v<count>` of finite numbers at toks[i]; advances i
/// past it.
std::vector<double> take_group(const LineReader& lr, std::span<const std::string_view> toks,
                               std::size_t& i, std::size_t count, const std::string& kind) {
  if (i >= toks.size() || toks[i] != ";") lr.fail("expected ';' in " + kind);
  ++i;
  if (count > toks.size() - i) lr.fail(kind + ": not enough numbers");
  const std::string what = kind + " value";
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) out.push_back(lr.number(toks[i++], what));
  return out;
}

/// Parse `t1 <n> ; axis ; values` starting at toks[start].
Table1D parse_t1(const LineReader& lr, std::span<const std::string_view> toks,
                 std::size_t start) {
  if (start >= toks.size() || toks[start] != "t1") lr.fail("expected t1 table");
  const std::size_t n = table_size(lr, toks, start + 1, "t1");
  std::size_t i = start + 2;
  auto axis = take_group(lr, toks, i, n, "t1");
  auto vals = take_group(lr, toks, i, n, "t1");
  return Table1D(std::move(axis), std::move(vals));
}

Table2D parse_t2(const LineReader& lr, std::span<const std::string_view> toks,
                 std::size_t start) {
  if (start >= toks.size() || toks[start] != "t2") lr.fail("expected t2 table");
  const std::size_t nx = table_size(lr, toks, start + 1, "t2");
  const std::size_t ny = table_size(lr, toks, start + 2, "t2");
  std::size_t i = start + 3;
  auto xs = take_group(lr, toks, i, nx, "t2");
  auto ys = take_group(lr, toks, i, ny, "t2");
  auto vals = take_group(lr, toks, i, nx * ny, "t2");
  return Table2D(std::move(xs), std::move(ys), std::move(vals));
}

}  // namespace

void write_library(std::ostream& os, const Library& lib) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "library " << lib.name() << " vdd " << lib.vdd() << "\n";
  for (const auto& c : lib.cells()) {
    os << "cell " << c.name << " kind " << kind_str(c.kind) << " drive "
       << c.drive_resistance << " holdres " << c.holding_resistance << " setup "
       << c.setup << " holdt " << c.hold << "\n";
    for (const auto& p : c.pins) {
      os << "pin " << p.name << ' ' << (p.dir == PinDir::kInput ? "input" : "output")
         << " role " << role_str(p.role) << " cap " << p.cap << "\n";
    }
    for (const auto& a : c.arcs) {
      os << "arc " << a.from_pin << ' ' << a.to_pin << ' ' << sense_str(a.sense) << "\n";
      write_t2(os, "delay_rise", a.delay_rise);
      write_t2(os, "delay_fall", a.delay_fall);
      write_t2(os, "slew_rise", a.slew_rise);
      write_t2(os, "slew_fall", a.slew_fall);
    }
    write_t1(os, "immunity", c.immunity.threshold_vs_width);
    write_t2(os, "prop_peak", c.propagation.out_peak);
    write_t2(os, "prop_width", c.propagation.out_width);
    os << "end_cell\n";
  }
  os << "end_library\n";
}

std::string write_library_string(const Library& lib) {
  std::ostringstream os;
  write_library(os, lib);
  return os.str();
}

Library read_library(std::istream& is) {
  LineReader lr(is);
  auto toks = lr.next();
  if (toks.size() < 4 || toks[0] != "library" || toks[2] != "vdd") {
    lr.fail("expected 'library <name> vdd <v>'");
  }
  Library lib(std::string(toks[1]), lr.scalar(toks[3], "vdd"));

  Cell cur;
  bool in_cell = false;
  const auto next_table = [&](const char* key) {
    const auto t = lr.next();
    if (t.empty() || t[0] != key) lr.fail(std::string("expected ") + key);
    return parse_t2(lr, t, 1);
  };
  for (toks = lr.next(); !toks.empty(); toks = lr.next()) {
    const auto key = toks[0];
    if (key == "end_library") return lib;
    // Table shapes and duplicate cells are checked by the Table and
    // Library constructors; their errors get this line's number.
    try {
      if (key == "cell") {
        if (in_cell) lr.fail("nested cell");
        if (toks.size() < 12) lr.fail("short cell header");
        cur = Cell{};
        cur.name = std::string(toks[1]);
        cur.kind = parse_kind(toks[3]);
        cur.drive_resistance = lr.scalar(toks[5], "drive");
        cur.holding_resistance = lr.scalar(toks[7], "holdres");
        cur.setup = lr.scalar(toks[9], "setup");
        cur.hold = lr.scalar(toks[11], "holdt");
        in_cell = true;
      } else if (key == "pin") {
        if (!in_cell || toks.size() < 7) lr.fail("bad pin line");
        Pin p;
        p.name = std::string(toks[1]);
        if (toks[2] != "input" && toks[2] != "output") {
          lr.fail("bad pin direction '" + std::string(toks[2]) + "'");
        }
        p.dir = toks[2] == "input" ? PinDir::kInput : PinDir::kOutput;
        p.role = parse_role(toks[4]);
        p.cap = lr.scalar(toks[6], "pin cap");
        cur.pins.push_back(std::move(p));
      } else if (key == "arc") {
        if (!in_cell || toks.size() < 4) lr.fail("bad arc line");
        TimingArc arc;
        arc.from_pin = lr.count(toks[1], "arc from-pin");
        arc.to_pin = lr.count(toks[2], "arc to-pin");
        const std::size_t pins = cur.pins.size();
        if (arc.from_pin >= pins || arc.to_pin >= pins) {
          lr.fail("arc pin out of range (cell " + cur.name + " has " +
                  std::to_string(pins) + " pins so far)");
        }
        if (cur.pins[arc.from_pin].dir != PinDir::kInput) {
          lr.fail("arc from-pin " + std::to_string(arc.from_pin) + " is not an input");
        }
        if (cur.pins[arc.to_pin].dir != PinDir::kOutput) {
          lr.fail("arc to-pin " + std::to_string(arc.to_pin) + " is not an output");
        }
        arc.sense = parse_sense(toks[3]);
        arc.delay_rise = next_table("delay_rise");
        arc.delay_fall = next_table("delay_fall");
        arc.slew_rise = next_table("slew_rise");
        arc.slew_fall = next_table("slew_fall");
        cur.arcs.push_back(std::move(arc));
      } else if (key == "immunity") {
        if (!in_cell) lr.fail("immunity outside cell");
        cur.immunity.threshold_vs_width = parse_t1(lr, toks, 1);
      } else if (key == "prop_peak") {
        if (!in_cell) lr.fail("prop_peak outside cell");
        cur.propagation.out_peak = parse_t2(lr, toks, 1);
      } else if (key == "prop_width") {
        if (!in_cell) lr.fail("prop_width outside cell");
        cur.propagation.out_width = parse_t2(lr, toks, 1);
      } else if (key == "end_cell") {
        if (!in_cell) lr.fail("end_cell outside cell");
        lib.add_cell(std::move(cur));
        in_cell = false;
      } else {
        lr.fail("unknown keyword '" + std::string(key) + "'");
      }
    } catch (const std::invalid_argument& e) {
      lr.fail(e.what());
    }
  }
  lr.fail("missing end_library");
}

Library read_library_string(const std::string& text) {
  std::istringstream is(text);
  return read_library(is);
}

}  // namespace nw::lib
