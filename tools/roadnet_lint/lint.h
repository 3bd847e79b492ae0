#ifndef ROADNET_TOOLS_ROADNET_LINT_LINT_H_
#define ROADNET_TOOLS_ROADNET_LINT_LINT_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

// roadnet_lint — project-specific static analysis.
//
// The repo's correctness rests on invariants that a general-purpose
// compiler cannot see: indexes immutable after preprocessing, query
// entry points threading a QueryContext, no edge searches on the query
// path, condvar notifies ordered against their waiter's lifetime. Each
// invariant exists because a concrete bug hit it (DESIGN.md "Static
// analysis & sanitizer matrix" maps rule -> bug); this tool turns the
// prose into a build gate.
//
// Architecture: a Rule is a class with an id ("R1"), a kebab-case name,
// and a per-file scan over a comment/string-stripped view of the source.
// The driver loads files, parses inline waivers, runs every rule, and
// reports findings as text or JSONL. Exit is nonzero if any finding is
// not covered by a reasoned waiver.
//
// Waiver syntax (inside any comment):
//
//   // roadnet-lint: allow(R2 legacy single-threaded wrapper)
//   // roadnet-lint: allow(R2,R3 one waiver may name several rules)
//
// A waiver covers findings of the named rules on its own line and on the
// following line (so a comment line above the offending statement
// works). The reason string is mandatory: a bare allow(R2) is itself a
// finding (rule W1), so every suppression carries a written
// justification reviewers can audit.

namespace roadnet::lint {

// One diagnostic. `waived` findings are reported but do not fail the
// run; the waiver's reason is carried for the report.
struct Finding {
  std::string rule_id;    // "R1".."R12" (R6 retired), or "W1" (waivers)
  std::string rule_name;  // kebab-case, e.g. "no-find-edge"
  std::string file;       // path as scanned (relative to the lint root)
  int line = 0;           // 1-based
  std::string message;
  bool waived = false;
  std::string waiver_reason;
};

// A parsed allow(...) waiver comment (syntax above).
struct Waiver {
  std::vector<std::string> rule_ids;
  std::string reason;
  int line = 0;  // 1-based line the comment sits on
  bool used = false;
};

// A loaded source file. `code` mirrors `raw` line-for-line with
// comments, string literals, and char literals blanked to spaces, so
// rules never match inside text that the compiler does not execute.
struct SourceFile {
  std::string path;  // relative to the lint root (used by AppliesTo)
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<Waiver> waivers;
  bool is_header = false;
};

// Base class of every check. Rules are stateless; Scan appends findings
// (without waiver resolution — the driver applies waivers afterwards).
class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string Id() const = 0;
  virtual std::string Name() const = 0;
  // One-line description for --list-rules and the rule catalog.
  virtual std::string Description() const = 0;
  virtual bool AppliesTo(const SourceFile&) const { return true; }
  virtual void Scan(const SourceFile& f, std::vector<Finding>* out) const = 0;
};

// The repo rules, R1..R12 without the retired R6 (see rules.cc for
// the catalog).
std::vector<std::unique_ptr<Rule>> BuildAllRules();

struct LintResult {
  std::vector<Finding> findings;  // waived and unwaived, file order
  int files_scanned = 0;
  int waivers_used = 0;
  int waivers_unused = 0;

  int UnwaivedCount() const;
};

// Loads `root`/`rel_path`, strips comments/strings into `code`, and
// parses waivers. Returns false (with *error set) on I/O failure.
bool LoadSourceFile(const std::string& root, const std::string& rel_path,
                    SourceFile* out, std::string* error);

// Lists the .h/.cc/.cpp files under `root` (relative paths, sorted).
// Paths containing a component named "lint_fixtures" are skipped: the
// fixture tree is deliberately rule-breaking test data.
std::vector<std::string> ListSourceFiles(const std::string& root,
                                         const std::vector<std::string>& dirs);

// Runs `rules` over `files`, resolves waivers, and returns all findings.
// If `only_rules` is non-empty, rules whose Id() is not listed are
// skipped (W1 waiver checks always run).
LintResult RunLint(std::vector<SourceFile>& files,
                   const std::vector<std::unique_ptr<Rule>>& rules,
                   const std::vector<std::string>& only_rules);

// Human-readable report: one `file:line: [id name] message` per finding
// plus a summary line.
void WriteText(std::ostream& out, const LintResult& result);

// Machine-readable JSONL: one record per finding plus a trailing
// summary record (schema validated by scripts/validate_metrics.py).
void WriteJsonl(std::ostream& out, const LintResult& result);

}  // namespace roadnet::lint

#endif  // ROADNET_TOOLS_ROADNET_LINT_LINT_H_
