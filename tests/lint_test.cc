// Self-test of tools/roadnet_lint: every rule R1..R12 (R6 is retired)
// must flag its known-bad fixture and stay silent on the known-good
// twin; the waiver mechanism must suppress with a reason, fail without
// one (W1), and ignore waivers naming the wrong rule. The binary is
// exercised too: exit 1 on each bad fixture, exit 0 on the good set and
// on the real repository tree (the check.sh gate).
//
// Fixtures live in tests/lint_fixtures/, laid out like the repo
// (src/ch/..., src/workload/...) because rule applicability is
// path-based. The tree is excluded from normal scans by its
// lint_fixtures path component.

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "roadnet_lint/lint.h"

namespace roadnet::lint {
namespace {

LintResult LintFiles(const std::vector<std::string>& rel_paths) {
  std::vector<SourceFile> files;
  for (const std::string& rel : rel_paths) {
    SourceFile f;
    std::string error;
    EXPECT_TRUE(LoadSourceFile(LINT_FIXTURE_DIR, rel, &f, &error)) << error;
    files.push_back(std::move(f));
  }
  auto rules = BuildAllRules();
  return RunLint(files, rules, {});
}

std::map<std::string, int> UnwaivedByRule(const LintResult& result) {
  std::map<std::string, int> counts;
  for (const Finding& f : result.findings) {
    if (!f.waived) ++counts[f.rule_id];
  }
  return counts;
}

struct RuleFixture {
  std::string rule;
  std::string bad;
  std::string good;
};

const RuleFixture kFixtures[] = {
    {"R1", "src/ch/bad_r1.cc", "src/ch/good_r1.cc"},
    {"R2", "src/myindex/bad_r2.h", "src/myindex/good_r2.h"},
    {"R3", "src/myindex/bad_r3.h", "src/myindex/good_r3.h"},
    {"R4", "src/server2/bad_r4.cc", "src/server2/good_r4.cc"},
    {"R5", "src/workload/bad_r5.cc", "src/workload/good_r5.cc"},
    {"R7", "src/include/bad_r7.h", "src/include/good_r7.h"},
    {"R8", "src/obs/bad_r8.cc", "src/obs/good_r8.cc"},
    {"R9", "src/poi/bad_r9.cc", "src/poi/good_r9.cc"},
    {"R10", "src/obs/bad_r10.h", "src/obs/good_r10.h"},
    {"R11", "src/ch/bad_r11.cc", "src/ch/good_r11.cc"},
    {"R12", "src/server/wire_bad_r12.cc", "src/server/wire_good_r12.cc"},
};

TEST(LintRules, EachBadFixtureIsFlaggedByItsRule) {
  for (const RuleFixture& fx : kFixtures) {
    LintResult result = LintFiles({fx.bad});
    auto counts = UnwaivedByRule(result);
    EXPECT_GE(counts[fx.rule], 1)
        << fx.bad << " should trigger " << fx.rule;
    // The bad fixture triggers only its own rule — findings from other
    // rules would mean the fixtures overlap and the per-rule exit-code
    // acceptance criterion is meaningless.
    for (const auto& [rule, n] : counts) {
      EXPECT_EQ(rule, fx.rule) << fx.bad << " also triggered " << rule;
      EXPECT_GE(n, 1);
    }
  }
}

TEST(LintRules, EachGoodFixtureIsClean) {
  for (const RuleFixture& fx : kFixtures) {
    LintResult result = LintFiles({fx.good});
    EXPECT_EQ(result.UnwaivedCount(), 0)
        << fx.good << " should be clean; first finding: "
        << (result.findings.empty() ? "(none)"
                                    : result.findings[0].message);
  }
}

TEST(LintRules, BadR5FlagsEveryNondeterminismKind) {
  LintResult result = LintFiles({"src/workload/bad_r5.cc"});
  // rand(), default-constructed mt19937, and time(nullptr) are three
  // distinct findings.
  EXPECT_GE(result.UnwaivedCount(), 3);
}

TEST(LintRules, BadR9FlagsEveryNondeterminismKindInPoiCode) {
  LintResult result = LintFiles({"src/poi/bad_r9.cc"});
  // rand(), default-constructed mt19937, and time(nullptr) — flagged by
  // R9 (the fixture lives outside R5's subtree, so R5 must not co-fire;
  // EachBadFixtureIsFlaggedByItsRule pins that).
  EXPECT_GE(result.UnwaivedCount(), 3);
}

TEST(LintRules, BadR7FlagsBothBitsAndUsingNamespace) {
  LintResult result = LintFiles({"src/include/bad_r7.h"});
  EXPECT_EQ(result.UnwaivedCount(), 2);
}

TEST(LintRules, BadR8FlagsEveryNonMonotonicClockKind) {
  LintResult result = LintFiles({"src/obs/bad_r8.cc"});
  // system_clock, gettimeofday, and high_resolution_clock are three
  // distinct findings (the comment mentions of the banned words are
  // stripped before scanning).
  EXPECT_GE(result.UnwaivedCount(), 3);
}

TEST(LintRules, BadR10FlagsEveryLockDisciplineBreak) {
  LintResult result = LintFiles({"src/obs/bad_r10.h"});
  // A raw std::mutex member, a GUARDED_BY naming a nonexistent mutex,
  // and a Mutex member guarding no field are three distinct findings.
  EXPECT_EQ(result.UnwaivedCount(), 3);
}

TEST(LintRules, BadR11FlagsEveryAllocationKind) {
  LintResult result = LintFiles({"src/ch/bad_r11.cc"});
  // make_unique, a per-iteration std::function, and an unreserved
  // push_back are three distinct findings.
  EXPECT_EQ(result.UnwaivedCount(), 3);
}

TEST(LintRules, BadR12FlagsEveryUncheckedReadKind) {
  LintResult result = LintFiles({"src/server/wire_bad_r12.cc"});
  // The unchecked memcpy, its .data() arithmetic, and the unchecked
  // buffer subscript each produce a finding.
  EXPECT_EQ(result.UnwaivedCount(), 3);
}

TEST(LintWaivers, ReasonedWaiverSuppressesAndIsCounted) {
  LintResult result = LintFiles({"waivers/waived.cc"});
  EXPECT_EQ(result.UnwaivedCount(), 0);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].waived);
  EXPECT_EQ(result.findings[0].rule_id, "R4");
  EXPECT_NE(result.findings[0].waiver_reason.find("joins the thread"),
            std::string::npos);
  EXPECT_EQ(result.waivers_used, 1);
  EXPECT_EQ(result.waivers_unused, 0);
}

TEST(LintWaivers, HandshakeMutexWaiverSuppressesR10) {
  // The drain_mu_ pattern: a mutex that only orders a sleep/notify
  // handshake around an atomic predicate carries a reasoned waiver.
  LintResult result = LintFiles({"src/obs/waived_r10.h"});
  EXPECT_EQ(result.UnwaivedCount(), 0);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].waived);
  EXPECT_EQ(result.findings[0].rule_id, "R10");
  EXPECT_NE(result.findings[0].waiver_reason.find("handshake-only"),
            std::string::npos);
  EXPECT_EQ(result.waivers_used, 1);
}

TEST(LintWaivers, WaiverWithoutReasonIsItselfAFinding) {
  LintResult result = LintFiles({"waivers/bad_waiver.cc"});
  auto counts = UnwaivedByRule(result);
  EXPECT_EQ(counts["W1"], 1) << "bare allow(R4) must be flagged";
  EXPECT_EQ(counts["R4"], 1) << "a reasonless waiver must not suppress";
  EXPECT_EQ(result.waivers_used, 0);
}

TEST(LintWaivers, WaiverForWrongRuleDoesNotSuppress) {
  LintResult result = LintFiles({"waivers/wrong_rule_waiver.cc"});
  auto counts = UnwaivedByRule(result);
  EXPECT_EQ(counts["R4"], 1);
  EXPECT_EQ(result.waivers_used, 0);
  EXPECT_EQ(result.waivers_unused, 1) << "unused waivers are reported";
}

// --- binary acceptance: exit codes and JSON output -----------------------

int RunBinary(const std::string& args) {
  const std::string cmd =
      std::string(LINT_BINARY) + " " + args + " > /dev/null 2>&1";
  int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

std::string ReadFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

TEST(LintBinary, ExitsNonzeroOnEachBadFixture) {
  for (const RuleFixture& fx : kFixtures) {
    EXPECT_EQ(RunBinary(std::string("--root ") + LINT_FIXTURE_DIR + " " +
                        fx.bad),
              1)
        << fx.bad;
  }
}

TEST(LintBinary, ExitsZeroOnGoodFixtures) {
  std::string args = std::string("--root ") + LINT_FIXTURE_DIR;
  for (const RuleFixture& fx : kFixtures) args += " " + fx.good;
  EXPECT_EQ(RunBinary(args), 0);
}

TEST(LintBinary, RepositoryTreeIsCleanWithReasonedWaivers) {
  // The acceptance gate check.sh runs: the real tree lints clean.
  EXPECT_EQ(RunBinary(std::string("--root ") + ROADNET_REPO_ROOT), 0);
}

TEST(LintBinary, RepositoryTreeStaysWithinWaiverBudget) {
  // Every waiver is a place where the tree's own rules do not hold; the
  // whole repository may carry at most this many.
  constexpr int kWaiverBudget = 2;
  const std::string json = ::testing::TempDir() + "/lint_repo.jsonl";
  ASSERT_EQ(RunBinary(std::string("--root ") + ROADNET_REPO_ROOT +
                      " --json " + json),
            0);
  const std::string content = ReadFile(json);
  const size_t summary = content.find("\"rule\":\"summary\"");
  ASSERT_NE(summary, std::string::npos) << content;
  const std::string key = "\"waived\":";
  const size_t waived = content.find(key, summary);
  ASSERT_NE(waived, std::string::npos) << content.substr(summary);
  EXPECT_LE(std::stoi(content.substr(waived + key.size())), kWaiverBudget)
      << content.substr(summary);
}

TEST(LintBinary, JsonFindingsAreWritten) {
  const std::string json = ::testing::TempDir() + "/lint_findings.jsonl";
  EXPECT_EQ(RunBinary(std::string("--root ") + LINT_FIXTURE_DIR +
                      " --json " + json + " waivers/waived.cc"),
            0);
  // Read the JSON back coarsely: it must mention the rule and the file.
  const std::string content = ReadFile(json);
  ASSERT_FALSE(content.empty());
  EXPECT_NE(content.find("\"rule\":\"R4\""), std::string::npos);
  EXPECT_NE(content.find("\"waived\":true"), std::string::npos);
  EXPECT_NE(content.find("\"rule\":\"summary\""), std::string::npos);
}

TEST(LintBinary, JsonRoundTripsThroughSchemaValidator) {
  // Findings from the new-generation rules (R10..R12, waived and not)
  // must satisfy the JSONL schema scripts/validate_metrics.py enforces.
  const std::string json = ::testing::TempDir() + "/lint_r10_r12.jsonl";
  EXPECT_EQ(RunBinary(std::string("--root ") + LINT_FIXTURE_DIR + " --json " +
                      json +
                      " src/obs/bad_r10.h src/ch/bad_r11.cc"
                      " src/server/wire_bad_r12.cc src/obs/waived_r10.h"),
            1);
  const std::string cmd = std::string("python3 ") + ROADNET_REPO_ROOT +
                          "/scripts/validate_metrics.py " + json +
                          " > /dev/null 2>&1";
  EXPECT_EQ(WEXITSTATUS(std::system(cmd.c_str())), 0)
      << "lint JSONL failed schema validation";
}

}  // namespace
}  // namespace roadnet::lint
