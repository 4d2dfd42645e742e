#include <gtest/gtest.h>

#include "injection/fault_bus.h"
#include "sim/env.h"
#include "sim/process.h"
#include "sim/simlibc.h"
#include "targets/harness.h"
#include "targets/webserver/suite.h"
#include "targets/webserver/webserver.h"

namespace afex {
namespace {

using namespace webserver;

// ---- config & modules ----

TEST(WebServerTest, LoadsConfig) {
  SimEnv env;
  InstallFixture(env, 2);
  WebServer server(env);
  EXPECT_EQ(server.LoadConfig("/etc/httpd.conf"), 0);
  EXPECT_EQ(server.module_count(), 2u);
  EXPECT_EQ(server.document_root(), "/www");
}

TEST(WebServerTest, MissingConfigHandled) {
  SimEnv env;
  WebServer server(env);
  EXPECT_EQ(server.LoadConfig("/etc/nope.conf"), -1);
}

TEST(WebServerTest, BadListenPortRejected) {
  SimEnv env;
  env.AddFile("/etc/httpd.conf", "Listen notaport\n");
  WebServer server(env);
  EXPECT_EQ(server.LoadConfig("/etc/httpd.conf"), -1);
}

TEST(WebServerTest, CheckedOomPathIsGraceful) {
  // The config pool calloc IS checked: OOM there fails cleanly, no crash.
  SimEnv env;
  InstallFixture(env, 1);
  env.bus().Arm({.function = LibcFn::calloc, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  WebServer server(env);
  EXPECT_EQ(server.LoadConfig("/etc/httpd.conf"), -1);
}

// ---- Fig. 7 bug ----

TEST(WebServerBugTest, StrdupFailureCrashesModuleRegistration) {
  SimEnv env;
  InstallFixture(env, 3);
  env.bus().Arm({.function = LibcFn::strdup, .call_lo = 2, .call_hi = 2, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  WebServer server(env);
  EXPECT_THROW(server.LoadConfig("/etc/httpd.conf"), SimCrash);
}

TEST(WebServerBugTest, InnerMallocFailureAlsoCrashes) {
  // The paper's point: the bug is reachable through malloc failing *inside*
  // strdup, invisible to source analysis of Apache's own code.
  SimEnv env;
  InstallFixture(env, 1);
  // calloc(pool) does not use malloc; the first malloc call is strdup's.
  env.bus().Arm({.function = LibcFn::malloc, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  WebServer server(env);
  EXPECT_THROW(server.LoadConfig("/etc/httpd.conf"), SimCrash);
}

TEST(WebServerBugTest, CrashStackNamesModuleRegistration) {
  SimEnv env;
  InstallFixture(env, 1);
  env.bus().Arm({.function = LibcFn::strdup, .call_lo = 1, .call_hi = 1, .retval = 0,
                 .errno_value = sim_errno::kENOMEM});
  WebServer server(env);
  RunOutcome out =
      RunProgram(env, [&server](SimEnv&) { return server.LoadConfig("/etc/httpd.conf"); });
  EXPECT_TRUE(out.crashed);
  const auto& stack = env.injection_stack();
  EXPECT_NE(std::find(stack.begin(), stack.end(), "ap_add_module"), stack.end());
}

// ---- request serving ----

TEST(WebServerTest, ServesStaticFile) {
  SimEnv env;
  InstallFixture(env, 1);
  WebServer server(env);
  ASSERT_EQ(server.LoadConfig("/etc/httpd.conf"), 0);
  ASSERT_EQ(server.Start(), 0);
  EXPECT_EQ(server.ServeOne("GET /index.html HTTP/1.1\r\n\r\n"), 0);
  EXPECT_NE(server.last_response().find("200 OK"), std::string::npos);
  EXPECT_NE(server.last_response().find("welcome"), std::string::npos);
}

TEST(WebServerTest, Missing404AndBadRequest400) {
  SimEnv env;
  InstallFixture(env, 1);
  WebServer server(env);
  ASSERT_EQ(server.LoadConfig("/etc/httpd.conf"), 0);
  ASSERT_EQ(server.Start(), 0);
  EXPECT_EQ(server.ServeOne("GET /none HTTP/1.1\r\n\r\n"), 0);
  EXPECT_NE(server.last_response().find("404"), std::string::npos);
  EXPECT_EQ(server.ServeOne("garbage\r\n\r\n"), 0);
  EXPECT_NE(server.last_response().find("400"), std::string::npos);
}

TEST(WebServerTest, PostStoresUpload) {
  SimEnv env;
  InstallFixture(env, 1);
  WebServer server(env);
  ASSERT_EQ(server.LoadConfig("/etc/httpd.conf"), 0);
  ASSERT_EQ(server.Start(), 0);
  EXPECT_EQ(server.ServeOne("POST /up HTTP/1.1\r\n\r\nBODY"), 0);
  EXPECT_NE(server.last_response().find("201"), std::string::npos);
  EXPECT_EQ(env.Find("/www/uploads/up")->content, "BODY");
}

TEST(WebServerTest, UploadWriteFailureLeavesNoPartialFile) {
  SimEnv env;
  InstallFixture(env, 1);
  WebServer server(env);
  ASSERT_EQ(server.LoadConfig("/etc/httpd.conf"), 0);
  ASSERT_EQ(server.Start(), 0);
  size_t writes = env.bus().CallCount(LibcFn::write);
  env.bus().Arm({.function = LibcFn::write,
                 .call_lo = static_cast<int>(writes + 1),
                 .call_hi = static_cast<int>(writes + 1),
                 .retval = -1,
                 .errno_value = sim_errno::kENOSPC});
  EXPECT_EQ(server.ServeOne("POST /up HTTP/1.1\r\n\r\nBODY"), 0);
  EXPECT_NE(server.last_response().find("500"), std::string::npos);
  EXPECT_FALSE(env.Exists("/www/uploads/up"));  // no torn upload
}

TEST(WebServerTest, CgiRoundTrip) {
  SimEnv env;
  InstallFixture(env, 1);
  WebServer server(env);
  ASSERT_EQ(server.LoadConfig("/etc/httpd.conf"), 0);
  ASSERT_EQ(server.Start(), 0);
  EXPECT_EQ(server.ServeOne("GET /cgi-script HTTP/1.1\r\n\r\n"), 0);
  EXPECT_NE(server.last_response().find("hello-from-cgi"), std::string::npos);
}

TEST(WebServerTest, LogFailureDoesNotFailRequest) {
  SimEnv env;
  InstallFixture(env, 1);
  env.Remove("/logs/access.log");
  env.Remove("/logs");  // logging target gone entirely
  WebServer server(env);
  ASSERT_EQ(server.LoadConfig("/etc/httpd.conf"), 0);
  ASSERT_EQ(server.Start(), 0);
  EXPECT_EQ(server.ServeOne("GET /index.html HTTP/1.1\r\n\r\n"), 0);
  EXPECT_NE(server.last_response().find("200 OK"), std::string::npos);
}

TEST(WebServerTest, ReadFailureReturns500) {
  SimEnv env;
  InstallFixture(env, 1);
  WebServer server(env);
  ASSERT_EQ(server.LoadConfig("/etc/httpd.conf"), 0);
  ASSERT_EQ(server.Start(), 0);
  size_t reads = env.bus().CallCount(LibcFn::read);
  env.bus().Arm({.function = LibcFn::read,
                 .call_lo = static_cast<int>(reads + 1),
                 .call_hi = static_cast<int>(reads + 1),
                 .retval = -1,
                 .errno_value = sim_errno::kEIO});
  EXPECT_EQ(server.ServeOne("GET /index.html HTTP/1.1\r\n\r\n"), 0);
  EXPECT_NE(server.last_response().find("500"), std::string::npos);
}

// ---- suite ----

TEST(WebServerSuiteTest, AllTestsPassWithoutInjection) {
  TargetHarness harness(MakeSuite());
  EXPECT_EQ(harness.RunSuiteWithoutInjection(), 0u);
}

TEST(WebServerSuiteTest, SpaceMatchesPaperDimensions) {
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(10, /*include_zero_call=*/false);
  EXPECT_EQ(space.TotalPoints(), 11020u);  // 58 x 19 x 10, as in the paper
}

TEST(WebServerSuiteTest, HarnessSeesFig7Crash) {
  TargetHarness harness(MakeSuite());
  FaultSpace space = harness.MakeSpace(10, false);
  size_t strdup_index = *space.axis(1).IndexOf("strdup");
  size_t call1 = *space.axis(2).IndexOf("1");
  TestOutcome outcome = harness.RunFault(space, Fault({0, strdup_index, call1}));
  EXPECT_TRUE(outcome.crashed);
  EXPECT_TRUE(outcome.fault_triggered);
}

}  // namespace
}  // namespace afex
