// Text round trips through the stream readers and writers (.nlib, .nv,
// .nwspef, reports): `written(write_spef, design, para)` is the text a
// writer prints, and `parsed(read_spef, text, design)` what a reader makes
// of a string. Pass every argument: a function passed by name drops its
// default arguments.
#pragma once

#include <sstream>
#include <string>

namespace nw::textio {

template <class Write, class... Args>
[[nodiscard]] std::string written(Write write, const Args&... args) {
  std::ostringstream os;
  write(os, args...);
  return os.str();
}

template <class Read, class... Args>
[[nodiscard]] auto parsed(Read read, const std::string& text, const Args&... args) {
  std::istringstream is(text);
  return read(is, args...);
}

}  // namespace nw::textio
