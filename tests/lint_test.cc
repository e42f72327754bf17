// Tests for tools/prefdb_lint: each fixture under tests/lint_fixtures/
// must trigger exactly its rule, the clean fixture and the real src/ tree
// must produce zero violations, and the lint:allow escape hatch must work.
//
// The fixture tree mirrors the src/ layout (lint_fixtures/src/cache/...)
// because two rules are path-scoped; LintContent is also exercised with
// synthetic paths to pin the scoping behavior directly.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace prefdb::lint {
namespace {

std::string FixturePath(const std::string& rel) {
  return std::string(PREFDB_SOURCE_DIR) + "/tests/lint_fixtures/" + rel;
}

// Asserts the fixture triggers `rule` at least once and triggers no other
// rule (fixtures are minimal repros, not grab bags).
void ExpectOnlyRule(const std::string& fixture, const std::string& rule) {
  std::vector<Violation> violations = LintFile(FixturePath(fixture));
  ASSERT_FALSE(violations.empty()) << fixture << " triggered nothing";
  for (const Violation& v : violations) {
    EXPECT_EQ(v.rule, rule) << FormatViolation(v);
    EXPECT_GT(v.line, 0) << FormatViolation(v);
  }
}

TEST(LintFixtures, NakedStdMutexTriggers) {
  ExpectOnlyRule("src/parallel/naked_mutex.cc", "mutex-guarded-by");
}

TEST(LintFixtures, UnguardedWrapperMutexTriggers) {
  ExpectOnlyRule("src/parallel/unguarded_wrapper.cc", "mutex-guarded-by");
}

TEST(LintFixtures, CatalogMutationOutsideEngineTriggers) {
  ExpectOnlyRule("src/exec/catalog_mutation.cc", "catalog-mutation");
}

TEST(LintFixtures, CacheNondeterminismTriggers) {
  ExpectOnlyRule("src/cache/nondeterminism.cc", "cache-determinism");
}

TEST(LintFixtures, TodoWithoutOwnerTriggers) {
  ExpectOnlyRule("src/common/todo_without_owner.h", "todo-owner");
}

TEST(LintFixtures, InlineMetricNameTriggers) {
  ExpectOnlyRule("src/exec/inline_metric_name.cc", "metric-registry");
}

TEST(LintFixtures, CleanFileIsClean) {
  std::vector<Violation> violations =
      LintFile(FixturePath("src/common/clean.h"));
  for (const Violation& v : violations) ADD_FAILURE() << FormatViolation(v);
}

// The gate itself: the real source tree carries zero violations. This is
// the same check `ctest -R prefdb_lint_src` runs via the CLI; keeping it
// here too means a plain `ctest` without labels still enforces it.
TEST(LintTree, SourceTreeIsClean) {
  std::vector<Violation> violations =
      LintTree(std::string(PREFDB_SOURCE_DIR) + "/src");
  for (const Violation& v : violations) ADD_FAILURE() << FormatViolation(v);
}

// ---- Rule-engine unit tests over in-memory content ----

TEST(LintContent, AllowSuppressesOnThatLineOnly) {
  const std::string content =
      "class C {\n"
      "  std::mutex a_;  // lint:allow(mutex-guarded-by) interop.\n"
      "  std::mutex b_;\n"
      "};\n";
  std::vector<Violation> v = LintContent("src/x/c.h", content);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "mutex-guarded-by");
  EXPECT_EQ(v[0].line, 3);
}

TEST(LintContent, WrapperMutexSatisfiedByGuardedBy) {
  const std::string content =
      "class C {\n"
      "  mutable Mutex mu_;\n"
      "  int x_ PREFDB_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_TRUE(LintContent("src/x/c.h", content).empty());
}

TEST(LintContent, MutexLockLocalIsNotAMutexDecl) {
  // Word-boundary check: "MutexLock lock(&mu_);" must not parse as a
  // declaration of a Mutex named "lock".
  const std::string content = "void F() { MutexLock lock(&mu_); }\n";
  EXPECT_TRUE(LintContent("src/x/c.cc", content).empty());
}

TEST(LintContent, CatalogMutationAllowedUnderEngine) {
  const std::string content = "Catalog* mutable_catalog() { return &c_; }\n";
  EXPECT_TRUE(LintContent("src/engine/engine.h", content).empty());
  std::vector<Violation> v = LintContent("src/exec/strategies.cc", content);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "catalog-mutation");
}

TEST(LintContent, CatalogRuleIgnoresFilesOutsideSrc) {
  // Tests and benches may poke the catalog directly; the rule is about
  // engine-internal discipline.
  const std::string content = "auto* c = engine.mutable_catalog();\n";
  EXPECT_TRUE(LintContent("tests/engine_test.cc", content).empty());
}

TEST(LintContent, CacheDeterminismScopedToCacheDir) {
  const std::string content = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_FALSE(LintContent("src/cache/fingerprint.cc", content).empty());
  EXPECT_TRUE(LintContent("src/obs/trace.cc", content).empty());
}

TEST(LintContent, CacheDeterminismWordBoundary) {
  // "operand(" contains "rand(" mid-word and must not match.
  const std::string content = "int v = operand(0);\n";
  EXPECT_TRUE(LintContent("src/cache/fingerprint.cc", content).empty());
  EXPECT_FALSE(
      LintContent("src/cache/fingerprint.cc", "int v = rand();\n").empty());
}

TEST(LintContent, TodoWithOwnerIsClean) {
  const std::string with_owner = std::string("// TO") + "DO(bob): revisit.\n";
  EXPECT_TRUE(LintContent("src/x/c.h", with_owner).empty());
  const std::string bare = std::string("// TO") + "DO: revisit.\n";
  std::vector<Violation> v = LintContent("src/x/c.h", bare);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "todo-owner");
}

TEST(LintContent, MetricRegistryScopedToSrcOutsideRegistryHeader) {
  const std::string content = "metrics->counter(\"pref.x.y\")->Increment();\n";
  // The registry header itself and code outside src/ are exempt; anything
  // else under src/ must reference an obs::kPref* constant.
  EXPECT_TRUE(LintContent("src/obs/metric_names.h", content).empty());
  EXPECT_TRUE(LintContent("tests/obs_test.cc", content).empty());
  std::vector<Violation> v = LintContent("src/exec/runner.cc", content);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "metric-registry");
  // Comments and lint:allow escape the rule like everywhere else.
  EXPECT_TRUE(
      LintContent("src/exec/runner.cc", "// was \"pref.x.y\" once\n").empty());
  EXPECT_TRUE(LintContent("src/exec/runner.cc",
                          "counter(\"pref.x.y\");  "
                          "// lint:allow(metric-registry) migration\n")
                  .empty());
}

TEST(LintContent, CommentedOutCodeDoesNotTriggerCodeRules) {
  const std::string content = "// std::mutex old_mu_;\n";
  EXPECT_TRUE(LintContent("src/x/c.cc", content).empty());
}

}  // namespace
}  // namespace prefdb::lint
