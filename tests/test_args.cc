#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/shard/sharded_engine.hpp"
#include "runtime/shard/shm_ring.hpp"
#include "runtime/shard/tcp_transport.hpp"
#include "runtime/thread_pool.hpp"

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
  for (const char* v : {"false", "0", "no", "off"}) {
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--on", v}));
    EXPECT_FALSE(p.getBool("on")) << v;
  }
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

/// The std::invalid_argument message a strict read throws ("" if none).
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

TEST(Args, BoolRejectsGarbageAndKeepsTheBareForm) {
  // A typo must not silently turn a switch off: "--audit maybe" is an
  // error naming the flag, as a malformed number is.
  auto makeAudit = [] {
    ArgParser p("tool", "test tool");
    p.flag("audit", "false", "a switch").flag("cached", "true", "a switch");
    return p;
  };
  for (const char* bad : {"maybe", "tru", "2", "TRUE "}) {
    ArgParser p = makeAudit();
    ASSERT_TRUE(parse(p, {"--audit", bad}));
    EXPECT_NE(numericError([&] { (void)p.getBool("audit"); }).find("--audit"),
              std::string::npos)
        << bad;
  }
  ArgParser bare = makeAudit();
  ASSERT_TRUE(parse(bare, {"--audit"}));
  EXPECT_TRUE(bare.getBool("audit"));
  ArgParser beforeFlag = makeAudit();
  ASSERT_TRUE(parse(beforeFlag, {"--audit", "--cached=off"}));
  EXPECT_TRUE(beforeFlag.getBool("audit"));
  EXPECT_FALSE(beforeFlag.getBool("cached"));
  // Unset and empty read as the flag's default.
  ArgParser unset = makeAudit();
  ASSERT_TRUE(parse(unset, {}));
  EXPECT_FALSE(unset.getBool("audit"));
  EXPECT_TRUE(unset.getBool("cached"));
  ArgParser empty = makeAudit();
  ASSERT_TRUE(parse(empty, {"--audit=", "--cached="}));
  EXPECT_FALSE(empty.getBool("audit"));
  EXPECT_TRUE(empty.getBool("cached"));
}

// --- Env knobs: the same strict parse as the flags. ---

/// Sets (or, with nullopt, unsets) an env var for one scope and restores
/// whatever it held before.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, std::optional<std::string> value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value)
      ::setenv(name, value->c_str(), 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_)
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(Args, EnvIntegerIsStrictAndNamesTheVariable) {
  const char* knob = "MPCSPAN_TEST_KNOB";
  {
    ScopedEnv env(knob, std::nullopt);
    EXPECT_EQ(envInteger(knob, 7, 1, 10), 7);  // unset: the fallback
  }
  {
    ScopedEnv env(knob, "");
    EXPECT_EQ(envInteger(knob, 7, 1, 10), 7);  // empty reads as unset
  }
  for (const char* ok : {"1", "10", "4"}) {
    ScopedEnv env(knob, ok);
    EXPECT_EQ(envInteger(knob, 7, 1, 10), std::stol(ok)) << ok;
  }
  for (const char* bad : {"4x", "x4", " 4", "1.5", "0", "11", "-3",
                          "99999999999999999999"}) {
    ScopedEnv env(knob, bad);
    const std::string err =
        numericError([&] { (void)envInteger(knob, 7, 1, 10); });
    EXPECT_NE(err.find(knob), std::string::npos)
        << "'" << bad << "' -> '" << err << "'";
  }
}

TEST(Args, EnvFlagAcceptsOnlyZeroAndOne) {
  const char* knob = "MPCSPAN_TEST_FLAG";
  {
    ScopedEnv env(knob, std::nullopt);
    EXPECT_FALSE(envFlag(knob));
  }
  {
    ScopedEnv env(knob, "0");
    EXPECT_FALSE(envFlag(knob));
  }
  {
    ScopedEnv env(knob, "1");
    EXPECT_TRUE(envFlag(knob));
  }
  for (const char* bad : {"2", "-1", "yes", "on", "true", "1x"}) {
    ScopedEnv env(knob, bad);
    EXPECT_NE(numericError([&] { (void)envFlag(knob); }).find(knob),
              std::string::npos)
        << bad;
  }
}

TEST(Args, RuntimeEnvKnobsRejectMalformedValues) {
  // Every env knob of the runtime goes through envInteger / envFlag: a
  // typo or an out-of-range value is an error naming the variable, never a
  // silent fallback to the default.
  using runtime::ThreadPool;
  using runtime::shard::ShardedEngine;
  struct Knob {
    const char* name;
    std::function<void()> read;
    std::vector<const char*> bad;
  };
  const std::vector<Knob> knobs = {
      {"MPCSPAN_THREADS", [] { (void)ThreadPool::defaultThreads(); },
       {"4x", "0", "-2"}},
      {"MPCSPAN_SHARDS", [] { (void)ShardedEngine::defaultShards(); },
       {"4x", "0", "-1"}},
      {"MPCSPAN_SHM_RING_BYTES",
       [] { (void)runtime::shard::defaultShmRingBytes(); },
       {"4x", "0", "2147483648"}},
      {"MPCSPAN_TCP_PORT", [] { (void)runtime::shard::defaultTcpPort(); },
       {"70000", "-1", "80x"}},
      {"MPCSPAN_TCP_TIMEOUT_MS",
       [] { (void)runtime::shard::defaultTcpTimeoutMs(); },
       {"0", "abc", "99999999999"}},
      {"MPCSPAN_TCP_REMOTE", [] { (void)runtime::shard::defaultTcpRemote(); },
       {"2", "yes"}},
      {"MPCSPAN_TCP_EXCHANGE",
       [] { (void)ShardedEngine::defaultTcpExchange(); }, {"2", "on"}},
  };
  for (const Knob& knob : knobs)
    for (const char* bad : knob.bad) {
      ScopedEnv env(knob.name, bad);
      EXPECT_NE(numericError(knob.read).find(knob.name), std::string::npos)
          << knob.name << "=" << bad;
    }
  ScopedEnv shards("MPCSPAN_SHARDS", "3");
  EXPECT_EQ(ShardedEngine::defaultShards(), 3u);
  ScopedEnv port("MPCSPAN_TCP_PORT", "65535");
  EXPECT_EQ(runtime::shard::defaultTcpPort(), 65535u);
  ScopedEnv remote("MPCSPAN_TCP_REMOTE", "1");
  EXPECT_TRUE(runtime::shard::defaultTcpRemote());
}

}  // namespace
}  // namespace mpcspan
