// Text tables and unit formatting.
#include <gtest/gtest.h>

#include "report/table.hpp"

namespace nw::report {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("|   name | value |"), std::string::npos) << s;
  EXPECT_NE(s.find("| longer |    22 |"), std::string::npos) << s;
}

TEST(TextTable, Validation) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Fmt, Units) {
  EXPECT_EQ(fmt_ps(123.46e-12), "123.5 ps");
  EXPECT_EQ(fmt_mv(0.0873), "87.3 mV");
  EXPECT_EQ(fmt_ff(4e-15), "4.0 fF");
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
  EXPECT_EQ(fmt_sci(12345.0), "1.23e+04");
}

}  // namespace
}  // namespace nw::report
