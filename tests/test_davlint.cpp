// End-to-end tests for tools/davlint: every rule gets a positive-hit
// fixture, a suppressed-hit fixture and a clean fixture, written to a temp
// directory and scanned by the real binary (DAVLINT_BIN, injected by CMake).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifndef DAVLINT_BIN
#error "DAVLINT_BIN must point at the davlint executable"
#endif

namespace {

namespace fs = std::filesystem;

struct LintResult {
  int exit_code = -1;
  std::string output;
};

class DavlintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("davlint_" + std::string(::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  fs::path write_fixture(const std::string& name, const std::string& body) {
    const fs::path p = dir_ / name;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << body;
    return p;
  }

  LintResult run(const std::string& args) {
    const fs::path out = dir_ / "lint_output.txt";
    const std::string cmd =
        std::string(DAVLINT_BIN) + " " + args + " > " + out.string() + " 2>&1";
    const int raw = std::system(cmd.c_str());
    LintResult r;
    r.exit_code = WEXITSTATUS(raw);
    std::ifstream in(out);
    std::stringstream ss;
    ss << in.rdbuf();
    r.output = ss.str();
    return r;
  }

  LintResult run_on(const fs::path& target) { return run(target.string()); }

  fs::path dir_;
};

TEST_F(DavlintTest, CleanFileExitsZero) {
  const auto p = write_fixture("clean.cpp",
                               "#include <cstdint>\n"
                               "int add(int a, int b) { return a + b; }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST_F(DavlintTest, MissingPathExitsTwo) {
  const auto r = run((dir_ / "does_not_exist").string());
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(DavlintTest, ListRulesNamesEveryRule) {
  const auto r = run("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule : {"rand", "random-device", "wall-clock",
                           "unordered-iter", "float-eq", "uninit-pod",
                           "obs-clock", "env-read"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  }
}

// ---- rand ----

TEST_F(DavlintTest, RandPositive) {
  const auto p =
      write_fixture("r.cpp", "#include <cstdlib>\nint f() { return rand(); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("r.cpp:2: [rand]"), std::string::npos) << r.output;
}

TEST_F(DavlintTest, RandSuppressed) {
  const auto p = write_fixture(
      "r.cpp",
      "#include <cstdlib>\n"
      "int f() { return rand(); }  // test fixture. davlint: allow(rand)\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(DavlintTest, RandCleanOnMemberAndSuffix) {
  const auto p = write_fixture("r.cpp",
                               "struct G { int rand() { return 4; } };\n"
                               "int f(G& g) { return g.rand(); }\n"
                               "int operand(int x) { return x; }\n"
                               "int g2() { return operand(1); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---- random-device ----

TEST_F(DavlintTest, RandomDevicePositive) {
  const auto p = write_fixture("rd.cpp",
                               "#include <random>\n"
                               "unsigned f() { std::random_device rd; "
                               "return rd(); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("rd.cpp:2: [random-device]"), std::string::npos)
      << r.output;
}

TEST_F(DavlintTest, RandomDeviceSuppressed) {
  const auto p = write_fixture(
      "rd.cpp",
      "#include <random>\n"
      "unsigned f() { std::random_device rd; return rd(); }  "
      "// fixture. davlint: allow(random-device)\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- wall-clock ----

TEST_F(DavlintTest, WallClockPositive) {
  const auto p = write_fixture("wc.cpp",
                               "#include <ctime>\n"
                               "long f() { return time(nullptr); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("wc.cpp:2: [wall-clock]"), std::string::npos)
      << r.output;
}

TEST_F(DavlintTest, WallClockSystemClockPositive) {
  const auto p = write_fixture(
      "wc.cpp", "#include <chrono>\n"
                "auto f() { return std::chrono::system_clock::now(); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
}

TEST_F(DavlintTest, WallClockMemberCallClean) {
  const auto p = write_fixture("wc.cpp",
                               "struct World { double time() const; };\n"
                               "double f(const World& w) { return w.time(); }\n"
                               "double g(const World* w) { return w->time(); }\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, WallClockFiresInMetricsLayer) {
  // The metrics/resources layer has no clock carve-out: campaign/metrics is
  // safety-metric arithmetic and campaign/resources the analytic Table II
  // model, so neither has a reason to read a clock.
  write_fixture("campaign/metrics_helper.cpp",
                "#include <ctime>\n"
                "long f() { return time(nullptr); }\n");
  write_fixture("campaign/resources_helper.cpp",
                "#include <chrono>\n"
                "auto g() { return std::chrono::steady_clock::now(); }\n");
  const auto r = run_on(dir_ / "campaign");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("metrics_helper.cpp:2: [wall-clock]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("resources_helper.cpp:2: [obs-clock]"),
            std::string::npos)
      << r.output;
}

TEST_F(DavlintTest, WallClockSuppressed) {
  const auto p = write_fixture(
      "wc.cpp",
      "#include <ctime>\n"
      "long f() { return time(nullptr); }  // fixture. davlint: allow(wall-clock)\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- obs-clock ----

TEST_F(DavlintTest, ObsClockPositive) {
  const auto p = write_fixture(
      "oc.cpp", "#include <chrono>\n"
                "auto f() { return std::chrono::steady_clock::now(); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("oc.cpp:2: [obs-clock]"), std::string::npos)
      << r.output;
}

TEST_F(DavlintTest, ObsClockHighResolutionPositive) {
  const auto p = write_fixture(
      "oc.cpp",
      "#include <chrono>\n"
      "auto f() { return std::chrono::high_resolution_clock::now(); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("[obs-clock]"), std::string::npos) << r.output;
}

TEST_F(DavlintTest, ObsClockExemptInObsLayer) {
  // The flight recorder's whole job is timing spans; steady_clock inside
  // src/obs/ needs no per-line suppression.
  write_fixture("src/obs/span_helper.h",
                "#include <chrono>\n"
                "inline auto f() { return std::chrono::steady_clock::now(); }\n");
  const auto r = run_on(dir_ / "src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(DavlintTest, ObsClockExemptInExecutorLayer) {
  // The process-isolated executor times real worker processes (watchdog,
  // backoff, utilization) — monotonic clock reads are its job too.
  write_fixture("campaign/executor_helper.cpp",
                "#include <chrono>\n"
                "auto f() { return std::chrono::steady_clock::now(); }\n");
  const auto r = run_on(dir_ / "campaign");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(DavlintTest, ObsClockSuppressed) {
  const auto p = write_fixture(
      "oc.cpp",
      "#include <chrono>\n"
      "auto f() { return std::chrono::steady_clock::now(); }  "
      "// fixture. davlint: allow(obs-clock)\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, WallClockStillFiresInsideObsLayer) {
  // The obs-clock carve-out is for monotonic clocks only: wall-clock reads
  // (system_clock, time()) stay banned inside src/obs/ like anywhere else.
  write_fixture("src/obs/wall.cpp",
                "#include <chrono>\n"
                "auto f() { return std::chrono::system_clock::now(); }\n");
  const auto r = run_on(dir_ / "src");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
}

// ---- env-read ----

TEST_F(DavlintTest, EnvReadPositive) {
  const auto p = write_fixture(
      "er.cpp",
      "#include <cstdlib>\n"
      "const char* f() { return std::getenv(\"DAV_JOBS\"); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("er.cpp:2: [env-read]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("EnvOptions"), std::string::npos) << r.output;
}

TEST_F(DavlintTest, EnvReadSuppressed) {
  const auto p = write_fixture(
      "er.cpp",
      "#include <cstdlib>\n"
      "const char* f() { return getenv(\"X\"); }  "
      "// fixture. davlint: allow(env-read)\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, EnvReadExemptInEnvOptions) {
  // env_options.cpp is the one sanctioned env-reading TU — the facade the
  // rule funnels everyone else through.
  write_fixture("campaign/env_options.cpp",
                "#include <cstdlib>\n"
                "const char* f() { return std::getenv(\"DAV_SCALE\"); }\n");
  const auto r = run_on(dir_ / "campaign");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(DavlintTest, EnvReadCleanOnMemberCall) {
  const auto p = write_fixture("er.cpp",
                               "struct E { int getenv() { return 0; } };\n"
                               "int f(E& e) { return e.getenv(); }\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- unordered-iter ----

TEST_F(DavlintTest, UnorderedIterPositive) {
  const auto p = write_fixture(
      "ui.cpp",
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> counts;\n"
      "  int sum = 0;\n"
      "  for (const auto& kv : counts) sum += kv.second;\n"
      "  return sum;\n"
      "}\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("ui.cpp:5: [unordered-iter]"), std::string::npos)
      << r.output;
}

TEST_F(DavlintTest, UnorderedIterSuppressed) {
  const auto p = write_fixture(
      "ui.cpp",
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> counts;\n"
      "  int sum = 0;\n"
      "  // Summation is order-independent:\n"
      "  for (const auto& kv : counts) sum += kv.second;  // davlint: allow(unordered-iter)\n"
      "  return sum;\n"
      "}\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, OrderedMapIterClean) {
  const auto p = write_fixture("ui.cpp",
                               "#include <map>\n"
                               "int f() {\n"
                               "  std::map<int, int> counts;\n"
                               "  int sum = 0;\n"
                               "  for (const auto& kv : counts) sum += kv.second;\n"
                               "  return sum;\n"
                               "}\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- float-eq ----

TEST_F(DavlintTest, FloatEqPositive) {
  const auto p = write_fixture("fe.cpp",
                               "bool f(double x) { return x == 1.5; }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("fe.cpp:1: [float-eq]"), std::string::npos)
      << r.output;
}

TEST_F(DavlintTest, FloatNeqLiteralOnLeftPositive) {
  const auto p = write_fixture("fe.cpp",
                               "bool f(float x) { return 0.0f != x; }\n");
  EXPECT_EQ(run_on(p).exit_code, 1);
}

TEST_F(DavlintTest, FloatEqSuppressed) {
  const auto p = write_fixture(
      "fe.cpp",
      "bool f(double x) { return x == 1.5; }  // sentinel. davlint: allow(float-eq)\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, IntegerEqClean) {
  const auto p = write_fixture("fe.cpp",
                               "bool f(int x) { return x == 15; }\n"
                               "bool g(double x) { return x <= 1.5; }\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- uninit-pod ----

TEST_F(DavlintTest, UninitPodPositive) {
  const auto p = write_fixture("up.h",
                               "struct State {\n"
                               "  double v;\n"
                               "  int steps;\n"
                               "};\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("up.h:2: [uninit-pod]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("up.h:3: [uninit-pod]"), std::string::npos)
      << r.output;
}

TEST_F(DavlintTest, UninitPodSuppressed) {
  const auto p = write_fixture(
      "up.h",
      "struct State {\n"
      "  double v;  // set by ctor of owner. davlint: allow(uninit-pod)\n"
      "};\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, InitializedPodClean) {
  const auto p = write_fixture("up.h",
                               "struct State {\n"
                               "  double v = 0.0;\n"
                               "  int steps{0};\n"
                               "  static int shared;\n"
                               "  int describe() const;\n"
                               "};\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(DavlintTest, ClassMembersExemptFromUninitPod) {
  // Classes are assumed to initialize members in constructors; the rule
  // targets aggregate structs whose indeterminate bytes leak into traces.
  const auto p = write_fixture("up.h",
                               "class Engine {\n"
                               " public:\n"
                               "  explicit Engine(int n);\n"
                               " private:\n"
                               "  int n_;\n"
                               "};\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- CLI behaviour ----

TEST_F(DavlintTest, RulesFilterRestrictsChecks) {
  const auto p = write_fixture("multi.cpp",
                               "#include <cstdlib>\n"
                               "int f() { return rand(); }\n"
                               "bool g(double x) { return x == 1.5; }\n");
  const auto all = run_on(p);
  EXPECT_EQ(all.exit_code, 1);
  EXPECT_NE(all.output.find("[rand]"), std::string::npos);
  EXPECT_NE(all.output.find("[float-eq]"), std::string::npos);

  const auto only_rand = run("--rules=rand " + p.string());
  EXPECT_EQ(only_rand.exit_code, 1);
  EXPECT_NE(only_rand.output.find("[rand]"), std::string::npos);
  EXPECT_EQ(only_rand.output.find("[float-eq]"), std::string::npos)
      << only_rand.output;
}

TEST_F(DavlintTest, UnknownRuleExitsTwo) {
  EXPECT_EQ(run("--rules=nonsense " + dir_.string()).exit_code, 2);
}

TEST_F(DavlintTest, BaselineAndSarifFlagsAreUnknown) {
  // Same-line allow() comments are the only suppression route and findings
  // go to stdout alone: a command line that passes one of these flags must
  // fail by name rather than lint without it.
  const auto p = write_fixture("clean.cpp", "int f() { return 1; }\n");
  for (const std::string flag :
       {"--baseline=", "--write-baseline=", "--sarif="}) {
    const auto r = run(flag + (dir_ / "x").string() + " " + p.string());
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("unknown option " + flag), std::string::npos)
        << r.output;
  }
}

TEST_F(DavlintTest, CommentsAndStringsAreIgnored) {
  const auto p = write_fixture(
      "noise.cpp",
      "// rand() in a comment is fine\n"
      "/* so is time(nullptr) in a block\n"
      "   spanning lines with rand() */\n"
      "const char* kMsg = \"rand() and time(nullptr) in a string\";\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(DavlintTest, DirectoryScanAggregatesFindings) {
  write_fixture("a/one.cpp", "#include <cstdlib>\nint f() { return rand(); }\n");
  write_fixture("a/two.cpp", "bool g(double x) { return x == 2.5; }\n");
  write_fixture("a/README.md", "rand() in docs is not scanned\n");
  const auto r = run_on(dir_ / "a");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("one.cpp:2: [rand]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("two.cpp:1: [float-eq]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("2 findings"), std::string::npos) << r.output;
}

// ---- lexer: raw strings ----

TEST_F(DavlintTest, RawStringContentIsStripped) {
  // PR-1's per-line stripper miscounted R"(...)" and could swallow the rest
  // of the file; the lexer must skip the raw body (including hazards inside
  // it) and keep scanning the code after the closing delimiter.
  const auto p = write_fixture(
      "raw.cpp",
      "#include <cstdlib>\n"
      "const char* kDoc = R\"(rand() time(nullptr) \" unbalanced)\";\n"
      "const char* kMulti = R\"delim(\n"
      "  srand(42); \")\" still inside\n"
      ")delim\";\n"
      "int f() { return rand(); }\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("raw.cpp:6: [rand]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 finding"), std::string::npos) << r.output;
}

// ---- signal-safety ----

TEST_F(DavlintTest, SignalSafetyWalksHandlerTwoHopsDeep) {
  const auto p = write_fixture(
      "sig.cpp",
      "#include <csignal>\n"
      "#include <cstdlib>\n"
      "void helper2() { void* p = malloc(16); (void)p; }\n"
      "void helper1() { helper2(); }\n"
      "void on_term(int) { helper1(); }\n"
      "void install() {\n"
      "  struct sigaction sa {};\n"
      "  sa.sa_handler = on_term;\n"
      "  ::sigaction(SIGTERM, &sa, nullptr);\n"
      "}\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("[signal-safety]"), std::string::npos) << r.output;
  // The violating call chain is printed hop by hop down to the malloc.
  EXPECT_NE(r.output.find("on_term"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("helper1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("helper2"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("malloc"), std::string::npos) << r.output;
}

TEST_F(DavlintTest, SignalSafetyAllowlistedHandlerIsClean) {
  const auto p = write_fixture(
      "sig.cpp",
      "#include <csignal>\n"
      "#include <unistd.h>\n"
      "void on_term(int sig) { ::write(2, \"bye\\n\", 4); ::raise(sig); }\n"
      "void install() { ::signal(SIGTERM, on_term); }\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, SignalSafetySuppressedAtCallSite) {
  const auto p = write_fixture(
      "sig.cpp",
      "#include <csignal>\n"
      "#include <cstdlib>\n"
      "void on_term(int) { malloc(8); }  // davlint: allow(signal-safety)\n"
      "void install() { ::signal(SIGTERM, on_term); }\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- fork-safety ----

TEST_F(DavlintTest, ForkChildStdioIsFlagged) {
  const auto p = write_fixture(
      "fk.cpp",
      "#include <cstdio>\n"
      "#include <unistd.h>\n"
      "int main() {\n"
      "  pid_t pid = ::fork();\n"
      "  if (pid == 0) {\n"
      "    printf(\"child\\n\");\n"
      "    ::_exit(0);\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("fk.cpp:6: [fork-safety]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("printf"), std::string::npos) << r.output;
}

TEST_F(DavlintTest, ForkChildWriteOnlyIsClean) {
  const auto p = write_fixture(
      "fk.cpp",
      "#include <unistd.h>\n"
      "int main() {\n"
      "  pid_t pid = ::fork();\n"
      "  if (pid == 0) {\n"
      "    ::write(2, \"child\\n\", 6);\n"
      "    ::_exit(0);\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, ForkChildSocketSyscallsAreClean) {
  // A forked child may speak over sockets; the raw socket syscalls are
  // async-signal-safe and must stay allowlisted.
  const auto p = write_fixture(
      "fk.cpp",
      "#include <sys/socket.h>\n"
      "#include <unistd.h>\n"
      "int main() {\n"
      "  pid_t pid = ::fork();\n"
      "  if (pid == 0) {\n"
      "    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"
      "    ::connect(fd, nullptr, 0);\n"
      "    ::send(fd, \"x\", 1, 0);\n"
      "    char c;\n"
      "    ::recv(fd, &c, 1, 0);\n"
      "    ::shutdown(fd, SHUT_RDWR);\n"
      "    ::close(fd);\n"
      "    ::_exit(0);\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

TEST_F(DavlintTest, SignalHandlerSocketShutdownIsClean) {
  // A handler that nudges a peer by closing a socket uses only
  // async-signal-safe syscalls.
  const auto p = write_fixture(
      "sig.cpp",
      "#include <csignal>\n"
      "#include <sys/socket.h>\n"
      "int g_fd;\n"
      "void on_term(int) { ::shutdown(g_fd, SHUT_RDWR); }\n"
      "void install() { ::signal(SIGTERM, on_term); }\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- layering ----

TEST_F(DavlintTest, LayeringBackEdgeFromCoreToCampaign) {
  write_fixture("src/campaign/driver.h", "#pragma once\n");
  const auto core = write_fixture("src/core/detector.cpp",
                                  "#include \"campaign/driver.h\"\n"
                                  "int detect() { return 0; }\n");
  const auto r = run_on(dir_ / "src");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("detector.cpp:1: [layering]"), std::string::npos)
      << r.output;
  (void)core;
}

TEST_F(DavlintTest, LayeringDownwardIncludeIsClean) {
  write_fixture("src/util/stats.h", "#pragma once\n");
  write_fixture("src/campaign/driver.cpp",
                "#include \"util/stats.h\"\n"
                "int drive() { return 0; }\n");
  EXPECT_EQ(run_on(dir_ / "src").exit_code, 0);
}

TEST_F(DavlintTest, LayeringSensorFaultCannotIncludeUpward) {
  // fi sits below sensors/agent/core: the sensor-fault subsystem must stay
  // includable from the capture seam without dragging higher layers in.
  write_fixture("src/sensors/sensor_rig.h", "#pragma once\n");
  const auto fi = write_fixture("src/fi/sensor_fault.h",
                                "#pragma once\n"
                                "#include \"sensors/sensor_rig.h\"\n");
  const auto r = run_on(dir_ / "src");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("sensor_fault.h:2: [layering]"), std::string::npos)
      << r.output;
  (void)fi;
}

TEST_F(DavlintTest, LayeringSensorsMayIncludeFi) {
  // The downward edge the rig's injection hook depends on.
  write_fixture("src/fi/sensor_fault.h", "#pragma once\n");
  write_fixture("src/sensors/sensor_rig.cpp",
                "#include \"fi/sensor_fault.h\"\n"
                "int capture() { return 0; }\n");
  EXPECT_EQ(run_on(dir_ / "src").exit_code, 0);
}

TEST_F(DavlintTest, LayeringIncludeCycleIsFlagged) {
  write_fixture("src/core/a.h", "#pragma once\n#include \"core/b.h\"\n");
  write_fixture("src/core/b.h", "#pragma once\n#include \"core/a.h\"\n");
  const auto r = run_on(dir_ / "src");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("include cycle"), std::string::npos) << r.output;
}

// ---- taint ----

TEST_F(DavlintTest, TaintFlowsIntoSerializeRunResult) {
  const auto p = write_fixture(
      "tt.cpp",
      "#include <string>\n"
      "struct RunResult { double score; };\n"
      "std::string serialize_run_result(const RunResult& r);\n"
      "std::string snapshot(double wall_sec) {\n"
      "  RunResult r;\n"
      "  double stamp = wall_sec * 2.0;\n"
      "  r.score = stamp;\n"
      "  return serialize_run_result(r);\n"
      "}\n");
  const auto r = run_on(p);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("tt.cpp:8: [taint]"), std::string::npos) << r.output;
}

TEST_F(DavlintTest, TaintCleanWhenSeedDerived) {
  const auto p = write_fixture(
      "tt.cpp",
      "#include <string>\n"
      "struct RunResult { double score; };\n"
      "std::string serialize_run_result(const RunResult& r);\n"
      "std::string snapshot(unsigned seed) {\n"
      "  RunResult r;\n"
      "  r.score = static_cast<double>(seed);\n"
      "  return serialize_run_result(r);\n"
      "}\n");
  EXPECT_EQ(run_on(p).exit_code, 0);
}

// ---- rules documentation ----

TEST_F(DavlintTest, ReadmeRulesTableMatchesRulesMd) {
  // Same no-drift pattern as EnvOptions::docs(): the README embeds the
  // generated table between markers; if the registry changes, regenerate
  // with `davlint --rules-md` and paste the block.
  std::ifstream in(DAV_README_PATH);
  ASSERT_TRUE(in) << DAV_README_PATH;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string readme = ss.str();
  const std::string begin_mark = "<!-- davlint-rules:begin -->\n";
  const std::string end_mark = "<!-- davlint-rules:end -->";
  const std::size_t b = readme.find(begin_mark);
  const std::size_t e = readme.find(end_mark);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  const std::string embedded =
      readme.substr(b + begin_mark.size(), e - b - begin_mark.size());

  const auto r = run("--rules-md");
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_EQ(embedded, r.output);
}

TEST_F(DavlintTest, RulesMarkdownNamesEveryRule) {
  const auto r = run("--rules-md");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"rand", "random-device", "wall-clock", "unordered-iter", "float-eq",
        "uninit-pod", "obs-clock", "env-read", "signal-safety", "fork-safety",
        "layering", "taint"}) {
    EXPECT_NE(r.output.find(std::string("`") + rule + "`"), std::string::npos)
        << rule << "\n" << r.output;
  }
}

}  // namespace
