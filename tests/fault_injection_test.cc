// Deterministic fault injection: arming, AFTER-skip counting, one-shot
// self-disarm, the throwing variant, and the parser/session pragma
// round-trip. The registry is process-wide, so every test disarms on exit.

#include "common/fault_injection.h"

#include <string>

#include "common/governor.h"
#include "exec/runner.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace prefdb {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  ~FaultInjectionTest() override { FaultInjection::Global().Disarm(); }
};

TEST_F(FaultInjectionTest, UnarmedNeverFires) {
  FaultInjection& faults = FaultInjection::Global();
  faults.Disarm();
  EXPECT_FALSE(faults.armed());
  const uint64_t before = faults.fired();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(faults.Hit("engine.execute").ok());
  }
  EXPECT_EQ(faults.fired(), before);
}

TEST_F(FaultInjectionTest, ArmedPointFiresOnceAndSelfDisarms) {
  FaultInjection& faults = FaultInjection::Global();
  faults.Arm("engine.execute");
  EXPECT_TRUE(faults.armed());
  EXPECT_EQ(faults.armed_point(), "engine.execute");
  const uint64_t before = faults.fired();

  Status st = faults.Hit("engine.execute");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("injected fault at 'engine.execute'"),
            std::string::npos);
  EXPECT_EQ(faults.fired(), before + 1);

  // One-shot: the firing disarmed the point, so the retry passes.
  EXPECT_FALSE(faults.armed());
  EXPECT_TRUE(faults.Hit("engine.execute").ok());
  EXPECT_EQ(faults.fired(), before + 1);
}

TEST_F(FaultInjectionTest, OtherPointsPassWhileArmed) {
  FaultInjection& faults = FaultInjection::Global();
  faults.Arm("cache.insert");
  EXPECT_TRUE(faults.Hit("engine.execute").ok());
  EXPECT_TRUE(faults.Hit("gbu.register_temp").ok());
  EXPECT_TRUE(faults.armed());  // Still waiting for its point.
  EXPECT_FALSE(faults.Hit("cache.insert").ok());
}

TEST_F(FaultInjectionTest, AfterSkipsThatManyHits) {
  FaultInjection& faults = FaultInjection::Global();
  faults.Arm("exec.operator", /*skip=*/2);
  EXPECT_TRUE(faults.Hit("exec.operator").ok());
  EXPECT_TRUE(faults.Hit("exec.operator").ok());
  Status st = faults.Hit("exec.operator");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_FALSE(faults.armed());
}

TEST_F(FaultInjectionTest, DisarmIsIdempotent) {
  FaultInjection& faults = FaultInjection::Global();
  faults.Arm("engine.execute");
  faults.Disarm();
  faults.Disarm();
  EXPECT_FALSE(faults.armed());
  EXPECT_TRUE(faults.Hit("engine.execute").ok());
}

TEST_F(FaultInjectionTest, RearmingReplacesThePoint) {
  FaultInjection& faults = FaultInjection::Global();
  faults.Arm("engine.execute");
  faults.Arm("cache.insert");
  EXPECT_EQ(faults.armed_point(), "cache.insert");
  EXPECT_TRUE(faults.Hit("engine.execute").ok());
  EXPECT_FALSE(faults.Hit("cache.insert").ok());
}

TEST_F(FaultInjectionTest, PragmaRoundTripThroughSession) {
  Session session(testing_util::MakeMovieCatalog());
  auto armed = session.Query("SET FAULT 'exec.operator' AFTER 3");
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  EXPECT_EQ(armed->executed_plan, "SET FAULT 'exec.operator' AFTER 3");
  EXPECT_TRUE(FaultInjection::Global().armed());
  EXPECT_EQ(FaultInjection::Global().armed_point(), "exec.operator");

  auto off = session.Query("SET FAULT OFF");
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off->executed_plan, "SET FAULT OFF");
  EXPECT_FALSE(FaultInjection::Global().armed());
}

TEST_F(FaultInjectionTest, PragmaRejectsMalformedInput) {
  Session session(testing_util::MakeMovieCatalog());
  EXPECT_FALSE(session.Query("SET FAULT").ok());
  EXPECT_FALSE(session.Query("SET FAULT ''").ok());
  EXPECT_FALSE(session.Query("SET FAULT 'x' AFTER").ok());
  EXPECT_FALSE(session.Query("SET FAULT 'x' trailing").ok());
  EXPECT_FALSE(FaultInjection::Global().armed());
}

}  // namespace
}  // namespace prefdb
