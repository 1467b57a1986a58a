#include "util/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace mpcspan {
namespace {

ArgParser makeParser() {
  ArgParser p("tool", "test tool");
  p.flag("name", "default", "a string")
      .flag("count", "7", "an int")
      .flag("ratio", "0.5", "a double")
      .flag("on", "false", "a bool");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tool");
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, DefaultsApplyWhenUnset) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_EQ(p.getInt("count"), 7);
  EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.5);
  EXPECT_FALSE(p.getBool("on"));
  EXPECT_FALSE(p.has("name"));
}

TEST(Args, EqualsForm) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--name=alice", "--count=42"}));
  EXPECT_EQ(p.get("name"), "alice");
  EXPECT_EQ(p.getInt("count"), 42);
  EXPECT_TRUE(p.has("name"));
}

TEST(Args, SpaceForm) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--name", "bob", "--ratio", "2.25"}));
  EXPECT_EQ(p.get("name"), "bob");
  EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 2.25);
}

TEST(Args, BooleanShortForm) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--on", "--name=x"}));
  EXPECT_TRUE(p.getBool("on"));
  EXPECT_EQ(p.get("name"), "x");
}

TEST(Args, BoolAcceptsSeveralSpellings) {
  for (const char* v : {"true", "1", "yes", "on"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--on", v}));
    EXPECT_TRUE(p.getBool("on")) << v;
  }
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--on", "false"}));
  EXPECT_FALSE(p.getBool("on"));
}

TEST(Args, UnknownFlagRejected) {
  ArgParser p = makeParser();
  EXPECT_FALSE(parse(p, {"--bogus=1"}));
  EXPECT_NE(p.error().find("bogus"), std::string::npos);
}

TEST(Args, PositionalRejected) {
  ArgParser p = makeParser();
  EXPECT_FALSE(parse(p, {"stray"}));
}

TEST(Args, HelpRequested) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--help"}));
  EXPECT_TRUE(p.helpRequested());
  const std::string u = p.usage();
  EXPECT_NE(u.find("--count"), std::string::npos);
  EXPECT_NE(u.find("an int"), std::string::npos);
}

TEST(Args, UnregisteredGetThrows) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get("nope"), std::invalid_argument);
}

/// The std::invalid_argument message a numeric read throws ("" if none).
template <class Fn>
std::string numericError(Fn&& read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Args, IntRejectsEmptyGarbageAndOverflow) {
  for (const char* bad : {"", "300x", "abc", "1.5", " ", "7 ",
                          "99999999999999999999", "-99999999999999999999"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--count", bad}));
    const std::string err = numericError([&] { (void)p.getInt("count"); });
    EXPECT_NE(err.find("--count"), std::string::npos)
        << "'" << bad << "' -> '" << err << "'";
  }
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--count=-12"}));
  EXPECT_EQ(p.getInt("count"), -12);
}

TEST(Args, DoubleRejectsEmptyGarbageAndOverflow) {
  for (const char* bad : {"", "0.5.5", "x", "2e", "1e999"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--ratio", bad}));
    const std::string err = numericError([&] { (void)p.getDouble("ratio"); });
    EXPECT_NE(err.find("--ratio"), std::string::npos)
        << "'" << bad << "' -> '" << err << "'";
  }
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--ratio", "-1e-3"}));
  EXPECT_DOUBLE_EQ(p.getDouble("ratio"), -1e-3);
}

TEST(Args, CountRejectsNegatives) {
  ArgParser p = makeParser();
  ASSERT_TRUE(parse(p, {"--count", "-1"}));
  EXPECT_NE(numericError([&] { (void)p.getCount("count"); }).find("--count"),
            std::string::npos);
  ArgParser q = makeParser();
  ASSERT_TRUE(parse(q, {"--count", "0"}));
  EXPECT_EQ(q.getCount("count"), 0u);
}

TEST(Args, PortAcceptsZeroAndRejectsOutOfRange) {
  for (const char* bad : {"70000", "65536", "-1", "80x"}) {
    ArgParser p("tool", "test tool");
    p.flag("port", "0", "a port");
    ASSERT_TRUE(parse(p, {"--port", bad}));
    EXPECT_NE(numericError([&] { (void)p.getPort("port"); }).find("--port"),
              std::string::npos)
        << bad;
  }
  for (const char* ok : {"0", "65535", "39421"}) {
    ArgParser p("tool", "test tool");
    p.flag("port", "0", "a port");
    ASSERT_TRUE(parse(p, {"--port", ok}));
    EXPECT_EQ(p.getPort("port"), std::stoul(ok)) << ok;
  }
}

TEST(Args, EmptyDefaultIsReadOnlyWhenGiven) {
  // Flags such as --u / --v default to empty: has() gates the numeric read,
  // and reading one that was never given is an error, not a silent 0.
  ArgParser p("tool", "test tool");
  p.flag("u", "", "a vertex");
  ASSERT_TRUE(parse(p, {}));
  EXPECT_FALSE(p.has("u"));
  EXPECT_THROW((void)p.getCount("u"), std::invalid_argument);
  ArgParser q("tool", "test tool");
  q.flag("u", "", "a vertex");
  ASSERT_TRUE(parse(q, {"--u", "17"}));
  ASSERT_TRUE(q.has("u"));
  EXPECT_EQ(q.getCount("u"), 17u);
}

}  // namespace
}  // namespace mpcspan
