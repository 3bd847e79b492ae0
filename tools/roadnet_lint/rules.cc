#include <algorithm>
#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "roadnet_lint/lint.h"

// The rule catalog. Every rule is grounded in a bug or near-miss this
// codebase actually hit; DESIGN.md "Static analysis & sanitizer matrix"
// tells each story. Rules scan the comment/string-stripped view
// (SourceFile::code) so matches are always live code.

namespace roadnet::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Whole-word occurrence check at `pos`.
bool IsWordAt(const std::string& line, size_t pos, size_t len) {
  if (pos > 0 && IsIdentChar(line[pos - 1])) return false;
  if (pos + len < line.size() && IsIdentChar(line[pos + len])) return false;
  return true;
}

// Calls fn(line_index, column) for every whole-word occurrence.
template <typename Fn>
void ForEachWord(const std::vector<std::string>& code, const std::string& word,
                 Fn fn) {
  for (size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    size_t pos = 0;
    while ((pos = line.find(word, pos)) != std::string::npos) {
      if (IsWordAt(line, pos, word.size())) fn(li, pos);
      pos += word.size();
    }
  }
}

bool PathStartsWith(const SourceFile& f, const char* prefix) {
  return f.path.rfind(prefix, 0) == 0;
}

Finding MakeFinding(int line, std::string message) {
  Finding f;
  f.line = line;
  f.message = std::move(message);
  return f;
}

// Joined view of the stripped code with offset -> line mapping, for the
// rules whose constructs span lines (class bodies, parameter lists).
struct Text {
  std::string s;
  std::vector<size_t> line_start;

  explicit Text(const std::vector<std::string>& code) {
    for (const std::string& line : code) {
      line_start.push_back(s.size());
      s += line;
      s += '\n';
    }
  }

  int LineOf(size_t off) const {
    auto it = std::upper_bound(line_start.begin(), line_start.end(), off);
    return static_cast<int>(it - line_start.begin());
  }
};

size_t SkipSpaces(const std::string& s, size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos;
}

// Offset just past the brace/paren that matches s[open] (which must be
// an opener); npos if unbalanced.
size_t SkipBalanced(const std::string& s, size_t open, char o, char c) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == o) ++depth;
    if (s[i] == c && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

bool ContainsWord(const std::string& s, const std::string& word) {
  size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    if (IsWordAt(s, pos, word.size())) return true;
    pos += word.size();
  }
  return false;
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// ---------------------------------------------------------------------------
// R1: no FindEdge / edge searches in query-path code.
//
// Grounding: the pre-PR-4 CH unpacker resolved every shortcut with a
// binary-searched FindEdge per hop; the rank-space layout deleted it by
// precomputing child arc indices. Any FindEdge that reappears under
// src/ch, src/dijkstra, or src/engine is the hot path regressing.
class NoFindEdgeRule : public Rule {
 public:
  std::string Id() const override { return "R1"; }
  std::string Name() const override { return "no-find-edge"; }
  std::string Description() const override {
    return "query-path code (src/ch, src/dijkstra, src/engine) must not "
           "call or declare FindEdge-style per-hop edge searches";
  }
  bool AppliesTo(const SourceFile& f) const override {
    return PathStartsWith(f, "src/ch/") || PathStartsWith(f, "src/dijkstra/") ||
           PathStartsWith(f, "src/engine/");
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    ForEachWord(f.code, "FindEdge", [&](size_t li, size_t) {
      out->push_back(MakeFinding(
          static_cast<int>(li) + 1,
          "FindEdge on the query path: shortcuts must resolve through "
          "precomputed arc indices (see ChIndex::ArcSource), not per-hop "
          "edge searches"));
    });
  }
};

// ---------------------------------------------------------------------------
// R2: *Index classes expose no public non-const methods.
//
// Grounding: the thread-safety contract (one immutable index, N
// QueryContexts) only holds if nothing can mutate the index after its
// constructor returns. PR 4 deleted ChIndex::set_stall_on_demand for
// exactly this reason. Constructors, destructors, operator=, statics,
// and `= default/delete` are exempt.
class IndexImmutableRule : public Rule {
 public:
  std::string Id() const override { return "R2"; }
  std::string Name() const override { return "index-immutable"; }
  std::string Description() const override {
    return "classes named *Index expose no public non-const methods; "
           "indexes are immutable after construction";
  }
  bool AppliesTo(const SourceFile& f) const override {
    return PathStartsWith(f, "src/");
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    Text text(f.code);
    const std::string& s = text.s;
    for (size_t pos = 0; pos < s.size();) {
      size_t cls = std::string::npos;
      bool is_struct = false;
      size_t c1 = s.find("class", pos);
      size_t c2 = s.find("struct", pos);
      if (c1 == std::string::npos && c2 == std::string::npos) break;
      if (c2 < c1) {
        cls = c2;
        is_struct = true;
      } else {
        cls = c1;
      }
      size_t after = cls + (is_struct ? 6 : 5);
      if (!IsWordAt(s, cls, after - cls)) {
        pos = after;
        continue;
      }
      size_t name_begin = SkipSpaces(s, after);
      size_t name_end = name_begin;
      while (name_end < s.size() && IsIdentChar(s[name_end])) ++name_end;
      const std::string name = s.substr(name_begin, name_end - name_begin);
      pos = name_end;
      if (name.size() < 6 || name.compare(name.size() - 5, 5, "Index") != 0) {
        continue;
      }
      // Definition or forward declaration? Find '{' before ';'.
      size_t brace = s.find('{', name_end);
      size_t semi = s.find(';', name_end);
      if (brace == std::string::npos ||
          (semi != std::string::npos && semi < brace)) {
        continue;
      }
      ScanClassBody(text, name, is_struct, brace, out);
      pos = brace + 1;
    }
  }

 private:
  void ScanClassBody(const Text& text, const std::string& class_name,
                     bool is_struct, size_t open_brace,
                     std::vector<Finding>* out) const {
    const std::string& s = text.s;
    bool is_public = is_struct;
    std::string stmt;
    size_t stmt_begin = std::string::npos;
    int paren_depth = 0;
    size_t i = open_brace + 1;
    auto flush = [&](bool before_block) {
      if (is_public) {
        CheckStatement(text, class_name, Trim(stmt), stmt_begin, before_block,
                       out);
      }
      stmt.clear();
      stmt_begin = std::string::npos;
    };
    while (i < s.size()) {
      char c = s[i];
      if (c == '(') ++paren_depth;
      if (c == ')') --paren_depth;
      if (paren_depth > 0) {
        // Inside a parameter list or init-list call; braces here
        // (ChConfig{} arguments, brace-init default args) are part of
        // the statement, not blocks.
        if (stmt_begin == std::string::npos &&
            !std::isspace(static_cast<unsigned char>(c))) {
          stmt_begin = i;
        }
        stmt += c;
        ++i;
        continue;
      }
      if (c == '}') {
        return;  // end of class body (nested blocks are skipped below)
      }
      if (c == '{' && paren_depth == 0) {
        flush(/*before_block=*/true);
        size_t end = SkipBalanced(s, i, '{', '}');
        if (end == std::string::npos) return;
        i = end;
        continue;
      }
      if (c == ';' && paren_depth == 0) {
        flush(/*before_block=*/false);
        ++i;
        continue;
      }
      if (c == ':' && paren_depth == 0) {
        if (i + 1 < s.size() && s[i + 1] == ':') {
          stmt += "::";
          i += 2;
          continue;
        }
        const std::string t = Trim(stmt);
        if (t == "public" || t == "protected" || t == "private") {
          is_public = t == "public";
          stmt.clear();
          stmt_begin = std::string::npos;
          ++i;
          continue;
        }
      }
      if (stmt_begin == std::string::npos &&
          !std::isspace(static_cast<unsigned char>(c))) {
        stmt_begin = i;
      }
      stmt += c;
      ++i;
    }
  }

  void CheckStatement(const Text& text, const std::string& class_name,
                      const std::string& stmt, size_t stmt_begin,
                      bool has_body, std::vector<Finding>* out) const {
    (void)has_body;
    if (stmt.empty() || stmt_begin == std::string::npos) return;
    for (const char* skip : {"using ", "friend ", "typedef ", "template",
                             "static_assert", "struct ", "class ", "enum "}) {
      if (stmt.rfind(skip, 0) == 0) return;
    }
    if (ContainsWord(stmt, "operator")) return;
    if (ContainsWord(stmt, "static")) return;
    size_t open = stmt.find('(');
    if (open == std::string::npos) return;  // data member
    // Method name: identifier immediately before '('.
    size_t name_end = open;
    while (name_end > 0 &&
           std::isspace(static_cast<unsigned char>(stmt[name_end - 1]))) {
      --name_end;
    }
    size_t name_begin = name_end;
    while (name_begin > 0 && IsIdentChar(stmt[name_begin - 1])) --name_begin;
    const std::string name = stmt.substr(name_begin, name_end - name_begin);
    if (name.empty()) return;
    if (name == class_name) return;  // constructor
    if (name_begin > 0 && stmt[name_begin - 1] == '~') return;  // destructor
    size_t close = SkipBalanced(stmt, open, '(', ')');
    if (close == std::string::npos) return;
    const std::string trailer = stmt.substr(close);
    if (ContainsWord(trailer, "const")) return;
    if (trailer.find("= delete") != std::string::npos ||
        trailer.find("= default") != std::string::npos ||
        trailer.find("=delete") != std::string::npos ||
        trailer.find("=default") != std::string::npos) {
      return;
    }
    out->push_back(MakeFinding(
        text.LineOf(stmt_begin),
        "public non-const method " + class_name + "::" + name +
            " on an *Index class; indexes are immutable after "
            "construction (move mutation into the constructor, a "
            "QueryContext, or a build-time config)"));
  }
};

// ---------------------------------------------------------------------------
// R3: query entry points take a QueryContext.
//
// Grounding: PR 1 split every index into immutable structure +
// per-thread QueryContext; a DistanceQuery/PathQuery declaration
// without a context parameter reintroduces hidden shared scratch and
// breaks the one-index-many-threads contract.
class ContextQueryApiRule : public Rule {
 public:
  std::string Id() const override { return "R3"; }
  std::string Name() const override { return "context-query-api"; }
  std::string Description() const override {
    return "DistanceQuery/PathQuery declarations in src/ must take a "
           "QueryContext (per-thread scratch; index stays immutable)";
  }
  bool AppliesTo(const SourceFile& f) const override {
    return PathStartsWith(f, "src/");
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    Text text(f.code);
    for (const char* entry : {"DistanceQuery", "PathQuery"}) {
      ScanEntry(text, entry, out);
    }
  }

 private:
  void ScanEntry(const Text& text, const std::string& word,
                 std::vector<Finding>* out) const {
    const std::string& s = text.s;
    size_t pos = 0;
    while ((pos = s.find(word, pos)) != std::string::npos) {
      const size_t here = pos;
      pos += word.size();
      if (!IsWordAt(s, here, word.size())) continue;
      // Declaration heuristics: preceded by a type name or :: (an
      // out-of-line definition), not by . or -> (a call site) and not
      // in a using-declaration.
      size_t back = here;
      while (back > 0 &&
             std::isspace(static_cast<unsigned char>(s[back - 1]))) {
        --back;
      }
      if (back == 0) continue;
      const char prev = s[back - 1];
      if (prev == '.' || prev == '(' || prev == ',' || prev == '=' ||
          prev == '&') {
        continue;  // call site or function-pointer use
      }
      if (prev == '>' && back >= 2 && s[back - 2] == '-') continue;  // ->
      if (IsIdentChar(prev)) {
        // `return DistanceQuery(...)` is a call, not a declaration.
        size_t wb = back;
        while (wb > 0 && IsIdentChar(s[wb - 1])) --wb;
        if (s.compare(wb, back - wb, "return") == 0) continue;
      }
      if (prev == ':') {
        // Qualified name: skip a using-declaration of a base-class query.
        size_t line_begin = s.rfind('\n', here);
        line_begin = line_begin == std::string::npos ? 0 : line_begin + 1;
        if (Trim(s.substr(line_begin, here - line_begin)).rfind("using", 0) ==
            0) {
          continue;
        }
      } else if (!IsIdentChar(prev)) {
        continue;  // not `Type Name(` — some expression context
      }
      size_t open = SkipSpaces(s, here + word.size());
      if (open >= s.size() || s[open] != '(') continue;
      size_t close = SkipBalanced(s, open, '(', ')');
      if (close == std::string::npos) continue;
      const std::string params = s.substr(open, close - open);
      if (params.find("QueryContext") != std::string::npos) continue;
      out->push_back(MakeFinding(
          text.LineOf(here),
          word + " declared without a QueryContext parameter; query "
                 "entry points thread per-thread scratch explicitly so "
                 "the index can be shared across threads"));
    }
  }
};

// ---------------------------------------------------------------------------
// R4: no notify on a pointer-reached condvar outside a lock scope.
//
// Grounding: PR 3's TSan-caught race — QueryServer::Complete notified
// the handler's stack-owned Pending condvar after unlocking; the waiter
// could observe `done`, return, and destroy the condvar before the
// notify touched it. When the condvar is reached through a pointer
// (`p->cv.notify_one()`), the notify must happen while a
// lock_guard/unique_lock/scoped_lock is still in scope.
class NotifyUnderLockRule : public Rule {
 public:
  std::string Id() const override { return "R4"; }
  std::string Name() const override { return "notify-under-lock"; }
  std::string Description() const override {
    return "notify_one/notify_all on a condvar reached through a pointer "
           "must run inside a live lock scope (waiter-owned condvars die "
           "at unlock)";
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    Text text(f.code);
    const std::string& s = text.s;
    int depth = 0;
    std::vector<int> lock_depths;
    size_t i = 0;
    while (i < s.size()) {
      char c = s[i];
      if (c == '{') {
        ++depth;
        ++i;
        continue;
      }
      if (c == '}') {
        --depth;
        while (!lock_depths.empty() && lock_depths.back() > depth) {
          lock_depths.pop_back();
        }
        ++i;
        continue;
      }
      if (IsIdentChar(c) && (i == 0 || !IsIdentChar(s[i - 1]))) {
        size_t end = i;
        while (end < s.size() && IsIdentChar(s[end])) ++end;
        const std::string word = s.substr(i, end - i);
        if (word == "lock_guard" || word == "unique_lock" ||
            word == "scoped_lock") {
          lock_depths.push_back(depth);
        } else if (word == "notify_one" || word == "notify_all") {
          size_t paren = SkipSpaces(s, end);
          if (paren < s.size() && s[paren] == '(') {
            // Receiver: the expression chars right before the word.
            size_t r = i;
            while (r > 0 && (IsIdentChar(s[r - 1]) || s[r - 1] == '.' ||
                             s[r - 1] == '>' || s[r - 1] == '-' ||
                             s[r - 1] == ']' || s[r - 1] == '[' ||
                             s[r - 1] == ':')) {
              --r;
            }
            const std::string receiver = s.substr(r, i - r);
            if (receiver.find("->") != std::string::npos &&
                lock_depths.empty()) {
              out->push_back(MakeFinding(
                  text.LineOf(i),
                  "notify on pointer-reached condvar '" +
                      receiver.substr(0, receiver.size() - 1) +
                      "' outside any lock scope; if the waiter owns the "
                      "condvar (stack/struct), it can be destroyed "
                      "between unlock and notify — notify while the "
                      "lock is held"));
            }
          }
        }
        i = end;
        continue;
      }
      ++i;
    }
  }
};

// ---------------------------------------------------------------------------
// R5: deterministic generator/workload code stays deterministic.
//
// Grounding: every experiment is reproduced bit-for-bit from an
// explicit seed (util/rng.h SplitMix64); one rand() or wall-clock read
// in graph generation or query sampling silently breaks every paired
// comparison the benches rely on.
class DeterministicRandomRule : public Rule {
 public:
  std::string Id() const override { return "R5"; }
  std::string Name() const override { return "deterministic-random"; }
  std::string Description() const override {
    return "generator/workload code (src/graph, src/workload) must use "
           "seeded roadnet::Rng — no rand(), unseeded mt19937, "
           "random_device, or wall-clock reads";
  }
  bool AppliesTo(const SourceFile& f) const override {
    return PathStartsWith(f, "src/workload/") ||
           PathStartsWith(f, "src/graph/");
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    for (const char* banned : {"rand", "srand", "random_device",
                               "gettimeofday", "system_clock"}) {
      ForEachWord(f.code, banned, [&](size_t li, size_t) {
        out->push_back(MakeFinding(
            static_cast<int>(li) + 1,
            std::string(banned) +
                " in deterministic generator/workload code; take an "
                "explicit seed and use roadnet::Rng so experiments "
                "reproduce bit-for-bit"));
      });
    }
    // time(nullptr) / time(NULL) / time(0): wall-clock seeding.
    ForEachWord(f.code, "time", [&](size_t li, size_t col) {
      const std::string& line = f.code[li];
      size_t p = SkipSpaces(line, col + 4);
      if (p >= line.size() || line[p] != '(') return;
      size_t a = SkipSpaces(line, p + 1);
      for (const char* arg : {"nullptr", "NULL", "0"}) {
        const size_t len = std::string(arg).size();
        if (line.compare(a, len, arg) == 0) {
          out->push_back(MakeFinding(
              static_cast<int>(li) + 1,
              "wall-clock seed time(" + std::string(arg) +
                  ") in deterministic code; take an explicit seed"));
          return;
        }
      }
    });
    // Unseeded std::mt19937: `mt19937 gen;` (no ctor argument).
    for (const char* engine : {"mt19937", "mt19937_64"}) {
      ForEachWord(f.code, engine, [&](size_t li, size_t col) {
        const std::string& line = f.code[li];
        size_t p = SkipSpaces(line, col + std::string(engine).size());
        // Variable declaration: identifier after the type name.
        size_t name_end = p;
        while (name_end < line.size() && IsIdentChar(line[name_end])) {
          ++name_end;
        }
        if (name_end == p) return;  // qualified use / temporary — skip
        size_t q = SkipSpaces(line, name_end);
        if (q < line.size() && (line[q] == '(' || line[q] == '{')) {
          return;  // seeded construction
        }
        out->push_back(MakeFinding(
            static_cast<int>(li) + 1,
            std::string(engine) +
                " default-constructed (fixed implementation-defined "
                "seed, and not the repo's Rng); seed explicitly or use "
                "roadnet::Rng"));
      });
    }
  }
};

// ---------------------------------------------------------------------------
// R7: include hygiene.
//
// Grounding: <bits/...> headers are libstdc++ internals (non-portable,
// and they drag in the world, bloating every TU); `using namespace std`
// in a header leaks into every includer and has already caused one
// ambiguous-overload build break downstream of <algorithm>.
class IncludeHygieneRule : public Rule {
 public:
  std::string Id() const override { return "R7"; }
  std::string Name() const override { return "include-hygiene"; }
  std::string Description() const override {
    return "no <bits/...> includes anywhere; no `using namespace std` "
           "in headers";
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    for (size_t li = 0; li < f.code.size(); ++li) {
      const std::string& line = f.code[li];
      const std::string trimmed = Trim(line);
      if (trimmed.rfind("#", 0) == 0 &&
          trimmed.find("<bits/") != std::string::npos) {
        out->push_back(MakeFinding(
            static_cast<int>(li) + 1,
            "#include <bits/...> is a libstdc++ internal header; "
            "include the standard headers you use"));
      }
      if (f.is_header && line.find("using namespace std") != std::string::npos) {
        out->push_back(MakeFinding(
            static_cast<int>(li) + 1,
            "`using namespace std` in a header leaks into every "
            "includer; qualify names instead"));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// R8: steady_clock-only timing on serving/engine/observability paths.
//
// Grounding: the tracing subsystem (src/obs/trace.h) stamps every stage
// of a request with nanoseconds relative to one steady_clock epoch, and
// stage windows recorded on four different threads only line up because
// that clock is monotonic. One system_clock / gettimeofday read mixed
// in (NTP steps it backwards, suspend jumps it forwards) produces
// negative or overlapping stage durations that validate_metrics.py
// rejects — and silently corrupts every latency histogram.
class SteadyClockTimingRule : public Rule {
 public:
  std::string Id() const override { return "R8"; }
  std::string Name() const override { return "steady-clock-timing"; }
  std::string Description() const override {
    return "timing code in src/obs, src/server, src/engine reads "
           "steady_clock only — no system_clock, gettimeofday, or "
           "high_resolution_clock (non-monotonic or unspecified)";
  }
  bool AppliesTo(const SourceFile& f) const override {
    return PathStartsWith(f, "src/obs/") || PathStartsWith(f, "src/server/") ||
           PathStartsWith(f, "src/engine/");
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    for (const char* banned :
         {"system_clock", "gettimeofday", "high_resolution_clock"}) {
      ForEachWord(f.code, banned, [&](size_t li, size_t) {
        out->push_back(MakeFinding(
            static_cast<int>(li) + 1,
            std::string(banned) +
                " in serving/observability timing code; trace spans and "
                "latency histograms require a monotonic clock — use "
                "std::chrono::steady_clock (see obs/trace.h)"));
      });
    }
  }
};

// ---------------------------------------------------------------------------
// R9: POI placement and kNN code stays deterministic too.
//
// Grounding: a POI set is regenerated bit-identically from
// PoiConfig::seed on other hosts (that is what makes the kNN
// differential harness and the loadgen's Dijkstra-oracle verification
// meaningful), and IER's strict termination tie-breaks assume a total
// reproducible candidate order. Same banned constructs as R5 — the
// Scan is inherited — applied to the POI/kNN subtree.
class PoiKnnSeededRandomRule : public DeterministicRandomRule {
 public:
  std::string Id() const override { return "R9"; }
  std::string Name() const override { return "poi-knn-seeded-random"; }
  std::string Description() const override {
    return "POI placement and kNN code (src/poi, src/knn) must use "
           "seeded roadnet::Rng — no rand(), unseeded mt19937, "
           "random_device, or wall-clock reads (R5's contract extended)";
  }
  bool AppliesTo(const SourceFile& f) const override {
    return PathStartsWith(f, "src/poi/") || PathStartsWith(f, "src/knn/");
  }
};

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool ContainsAny(const std::string& haystack,
                 std::initializer_list<const char*> needles) {
  for (const char* n : needles) {
    if (haystack.find(n) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// R10: the concurrency layer carries compiler-checked lock annotations.
//
// Grounding: the Clang Thread Safety Analysis gate (check.sh tsa) only
// sees locks it knows about. A raw std::mutex member is invisible to
// it — the roadnet::Mutex/CondVar wrappers (util/mutex.h) carry the
// CAPABILITY attributes — and a ROADNET_GUARDED_BY naming a typo'd or
// foreign mutex silently guards nothing. This rule runs on every host
// (the tsa stage needs clang), so GCC-only machines still keep the
// annotation surface intact. Three checks per class in the concurrency
// directories: no raw standard-library lock types, every GUARDED_BY
// argument resolves to a Mutex member of the same class, and every
// Mutex member guards at least one field (a lock that protects nothing
// either wants an annotation or a waiver explaining what it orders).
class AnnotatedLockRule : public Rule {
 public:
  std::string Id() const override { return "R10"; }
  std::string Name() const override { return "annotated-lock-discipline"; }
  std::string Description() const override {
    return "concurrency-layer classes (src/server, src/engine, src/obs) "
           "use roadnet::Mutex/CondVar (never raw std::mutex), every "
           "ROADNET_GUARDED_BY names a Mutex member of the same class, "
           "and every Mutex member guards at least one field";
  }
  bool AppliesTo(const SourceFile& f) const override {
    return PathStartsWith(f, "src/server/") ||
           PathStartsWith(f, "src/engine/") || PathStartsWith(f, "src/obs/");
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    Text text(f.code);
    const std::string& s = text.s;
    for (size_t pos = 0; pos < s.size();) {
      size_t cls = std::string::npos;
      bool is_struct = false;
      size_t c1 = s.find("class", pos);
      size_t c2 = s.find("struct", pos);
      if (c1 == std::string::npos && c2 == std::string::npos) break;
      if (c2 < c1) {
        cls = c2;
        is_struct = true;
      } else {
        cls = c1;
      }
      size_t after = cls + (is_struct ? 6 : 5);
      if (!IsWordAt(s, cls, after - cls)) {
        pos = after;
        continue;
      }
      size_t name_begin = SkipSpaces(s, after);
      size_t name_end = name_begin;
      while (name_end < s.size() && IsIdentChar(s[name_end])) ++name_end;
      const std::string name = s.substr(name_begin, name_end - name_begin);
      pos = name_end;
      if (name.empty()) continue;
      size_t brace = s.find('{', name_end);
      size_t semi = s.find(';', name_end);
      if (brace == std::string::npos ||
          (semi != std::string::npos && semi < brace)) {
        continue;  // forward declaration
      }
      ScanClassBody(text, name, brace, out);
      // Resume inside the body so nested structs get their own pass.
      pos = brace + 1;
    }
  }

 private:
  // One member-declaration statement of the class under scan.
  struct Member {
    std::string stmt;
    size_t begin = 0;  // offset into Text::s
  };

  void ScanClassBody(const Text& text, const std::string& class_name,
                     size_t open_brace, std::vector<Finding>* out) const {
    const std::string& s = text.s;
    std::vector<Member> members;
    std::string stmt;
    size_t stmt_begin = std::string::npos;
    int paren_depth = 0;
    size_t i = open_brace + 1;
    auto flush = [&]() {
      const std::string t = Trim(stmt);
      if (!t.empty() && stmt_begin != std::string::npos) {
        members.push_back({t, stmt_begin});
      }
      stmt.clear();
      stmt_begin = std::string::npos;
    };
    while (i < s.size()) {
      char c = s[i];
      if (c == '(') ++paren_depth;
      if (c == ')') --paren_depth;
      if (paren_depth > 0) {
        if (stmt_begin == std::string::npos &&
            !std::isspace(static_cast<unsigned char>(c))) {
          stmt_begin = i;
        }
        stmt += c;
        ++i;
        continue;
      }
      if (c == '}') break;  // end of class body
      if (c == '{') {
        // Method body or nested type: drop it. Nested structs are
        // scanned independently by the outer class/struct walk.
        flush();
        size_t end = SkipBalanced(s, i, '{', '}');
        if (end == std::string::npos) return;
        i = end;
        continue;
      }
      if (c == ';') {
        flush();
        ++i;
        continue;
      }
      if (c == ':' && (i + 1 >= s.size() || s[i + 1] != ':')) {
        const std::string t = Trim(stmt);
        if (t == "public" || t == "protected" || t == "private") {
          stmt.clear();
          stmt_begin = std::string::npos;
          ++i;
          continue;
        }
      }
      if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        stmt += "::";
        i += 2;
        continue;
      }
      if (stmt_begin == std::string::npos &&
          !std::isspace(static_cast<unsigned char>(c))) {
        stmt_begin = i;
      }
      stmt += c;
      ++i;
    }
    CheckMembers(text, class_name, members, out);
  }

  void CheckMembers(const Text& text, const std::string& class_name,
                    const std::vector<Member>& members,
                    std::vector<Finding>* out) const {
    // Pass 1: the class's Mutex members, and raw standard lock types.
    std::vector<std::pair<std::string, size_t>> mutexes;  // name, offset
    for (const Member& m : members) {
      for (const char* skip : {"using ", "friend ", "typedef ", "template",
                               "static_assert", "struct ", "class ", "enum "}) {
        if (m.stmt.rfind(skip, 0) == 0) goto next_member;
      }
      for (const char* raw :
           {"std::mutex", "std::shared_mutex", "std::recursive_mutex",
            "std::timed_mutex", "std::condition_variable"}) {
        if (m.stmt.find(raw) != std::string::npos) {
          out->push_back(MakeFinding(
              text.LineOf(m.begin),
              std::string(raw) + " in " + class_name +
                  "; the concurrency layer uses roadnet::Mutex/CondVar "
                  "(util/mutex.h) so Clang Thread Safety Analysis sees "
                  "the capability"));
        }
      }
      {
        std::string decl = m.stmt;
        if (decl.rfind("mutable ", 0) == 0) decl = Trim(decl.substr(8));
        if (decl.rfind("Mutex", 0) == 0 && IsWordAt(decl, 0, 5)) {
          size_t nb = SkipSpaces(decl, 5);
          size_t ne = nb;
          while (ne < decl.size() && IsIdentChar(decl[ne])) ++ne;
          // A plain member only: `Mutex& Lock()` etc. never reaches here
          // because '(' later in the stmt still yields a name; require
          // the declarator to end the statement (no parameter list).
          if (ne > nb && decl.find('(') == std::string::npos) {
            mutexes.emplace_back(decl.substr(nb, ne - nb), m.begin);
          }
        }
      }
    next_member:;
    }
    // Pass 2: every GUARDED_BY argument resolves; every mutex guards.
    std::set<std::string> guarding;
    for (const Member& m : members) {
      for (const char* macro :
           {"ROADNET_GUARDED_BY", "ROADNET_PT_GUARDED_BY"}) {
        size_t at = m.stmt.find(macro);
        if (at == std::string::npos) continue;
        size_t open = m.stmt.find('(', at);
        if (open == std::string::npos) continue;
        size_t close = SkipBalanced(m.stmt, open, '(', ')');
        if (close == std::string::npos) continue;
        const std::string arg =
            Trim(m.stmt.substr(open + 1, close - open - 2));
        bool resolved = false;
        for (const auto& [mu, off] : mutexes) {
          if (mu == arg) resolved = true;
        }
        if (resolved) {
          guarding.insert(arg);
        } else {
          out->push_back(MakeFinding(
              text.LineOf(m.begin),
              std::string(macro) + "(" + arg + ") in " + class_name +
                  " does not name a Mutex member of this class; the "
                  "annotation guards nothing and the tsa gate cannot "
                  "check it"));
        }
      }
    }
    for (const auto& [mu, off] : mutexes) {
      if (guarding.count(mu)) continue;
      out->push_back(MakeFinding(
          text.LineOf(off),
          "Mutex member " + class_name + "::" + mu +
              " guards no field; add ROADNET_GUARDED_BY(" + mu +
              ") to the data it protects, or waive with the reason the "
              "lock exists (e.g. it only orders a sleep/notify handshake)"));
    }
  }
};

// ---------------------------------------------------------------------------
// R11: settle loops do not allocate.
//
// Grounding: the query-path contract since PR 1 is "contexts allocate,
// queries reuse" — every per-query vector lives in a reusable
// QueryContext so the settle loop's dependency chain never stalls on
// malloc (and never takes the allocator lock under the multi-threaded
// engine). One push_back on an unreserved vector inside the CH settle
// loop is invisible in unit tests (first query grows it, the rest ride
// the capacity) but shows up as p99 jitter under the server. A settle
// loop is recognized lexically: a while/for whose condition watches a
// heap/queue/frontier, or whose body pops and settles one.
class NoAllocInSettleLoopRule : public Rule {
 public:
  std::string Id() const override { return "R11"; }
  std::string Name() const override { return "no-alloc-in-settle-loop"; }
  std::string Description() const override {
    return "query hot paths (src/ch, src/dijkstra, src/hl, src/knn) do "
           "not allocate inside settle loops: no new/make_unique/"
           "make_shared/std::function, and no push_back on a vector "
           "this file never reserves";
  }
  bool AppliesTo(const SourceFile& f) const override {
    if (!(PathStartsWith(f, "src/ch/") || PathStartsWith(f, "src/dijkstra/") ||
          PathStartsWith(f, "src/hl/") || PathStartsWith(f, "src/knn/"))) {
      return false;
    }
    // Build-time code (contraction, ordering) allocates freely; the
    // rule polices the query path only.
    return f.path.find("contraction") == std::string::npos &&
           f.path.find("node_order") == std::string::npos;
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    Text text(f.code);
    const std::string& s = text.s;
    std::set<std::pair<int, std::string>> seen;  // nested loops rescan
    for (const char* kw : {"while", "for"}) {
      const size_t kwlen = std::string(kw).size();
      size_t pos = 0;
      while ((pos = s.find(kw, pos)) != std::string::npos) {
        const size_t here = pos;
        pos += kwlen;
        if (!IsWordAt(s, here, kwlen)) continue;
        size_t open = SkipSpaces(s, here + kwlen);
        if (open >= s.size() || s[open] != '(') continue;
        size_t close = SkipBalanced(s, open, '(', ')');
        if (close == std::string::npos) continue;
        size_t body_begin = SkipSpaces(s, close);
        size_t body_end;
        if (body_begin < s.size() && s[body_begin] == '{') {
          body_end = SkipBalanced(s, body_begin, '{', '}');
          if (body_end == std::string::npos) continue;
        } else {
          body_end = s.find(';', body_begin);
          if (body_end == std::string::npos) continue;
        }
        const std::string cond = Lower(s.substr(open, close - open));
        const std::string body =
            Lower(s.substr(body_begin, body_end - body_begin));
        const bool settles =
            ContainsAny(cond, {"empty(", "heap", "queue", "minkey",
                               ".next("}) ||
            ContainsAny(body, {"popmin(", "pop_heap", ".settle(",
                               "heappush(", "heap["});
        if (!settles) continue;
        ScanBody(text, body_begin, body_end, &seen, out);
      }
    }
  }

 private:
  void ScanBody(const Text& text, size_t begin, size_t end,
                std::set<std::pair<int, std::string>>* seen,
                std::vector<Finding>* out) const {
    const std::string& s = text.s;
    auto emit = [&](size_t off, const std::string& msg) {
      const int line = text.LineOf(off);
      if (seen->insert({line, msg}).second) {
        out->push_back(MakeFinding(line, msg));
      }
    };
    for (const char* alloc : {"new", "make_unique", "make_shared"}) {
      const size_t len = std::string(alloc).size();
      size_t pos = begin;
      while ((pos = s.find(alloc, pos)) != std::string::npos && pos < end) {
        const size_t here = pos;
        pos += len;
        if (!IsWordAt(s, here, len)) continue;
        emit(here, std::string(alloc) +
                       " inside a settle loop; allocate in the "
                       "QueryContext (NewContext/Reset) so the hot loop "
                       "never touches the allocator");
      }
    }
    {
      size_t pos = begin;
      while ((pos = s.find("std::function", pos)) != std::string::npos &&
             pos < end) {
        emit(pos,
             "std::function constructed inside a settle loop; capturing "
             "callables heap-allocate — hoist it out of the loop or use "
             "a template parameter");
        pos += 13;
      }
    }
    for (const char* push : {"push_back", "emplace_back"}) {
      const size_t len = std::string(push).size();
      size_t pos = begin;
      while ((pos = s.find(push, pos)) != std::string::npos && pos < end) {
        const size_t here = pos;
        pos += len;
        if (!IsWordAt(s, here, len)) continue;
        // Receiver: the identifier right before `.push_back` or
        // `->push_back`.
        size_t r = here;
        if (r >= 1 && s[r - 1] == '.') {
          r -= 1;
        } else if (r >= 2 && s[r - 2] == '-' && s[r - 1] == '>') {
          r -= 2;
        } else {
          continue;  // unqualified call — not a container member
        }
        size_t sym_end = r;
        while (r > 0 && IsIdentChar(s[r - 1])) --r;
        const std::string sym = s.substr(r, sym_end - r);
        if (sym.empty()) continue;
        if (s.find(sym + ".reserve(") != std::string::npos ||
            s.find(sym + "->reserve(") != std::string::npos) {
          continue;  // capacity is managed somewhere in this file
        }
        emit(here, std::string(push) + " on '" + sym +
                       "' inside a settle loop with no " + sym +
                       ".reserve( anywhere in this file; growth "
                       "reallocates mid-search — reserve in the "
                       "context/setup code");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// R12: wire decoding never reads without a remaining-bytes check.
//
// Grounding: the server feeds DecodeXxx whatever bytes arrive on the
// socket; every field read must be preceded by an explicit check that
// the bytes exist (the Reader::Take cursor centralizes this — its one
// memcpy sits right behind `pos + sizeof(T) > body.size()`). A raw
// memcpy/subscript/.data()-arithmetic read added outside that pattern
// is an out-of-bounds read on a truncated frame — exactly the class
// the fuzz_wire_decode harness hunts, caught here without a fuzzer.
class WireBoundsCheckRule : public Rule {
 public:
  std::string Id() const override { return "R12"; }
  std::string Name() const override { return "wire-bounds-check"; }
  std::string Description() const override {
    return "raw byte reads in src/server/wire.* (memcpy, buffer "
           "subscripts, .data() arithmetic) must follow a "
           "remaining-bytes check in the same function";
  }
  bool AppliesTo(const SourceFile& f) const override {
    return PathStartsWith(f, "src/server/wire");
  }
  void Scan(const SourceFile& f, std::vector<Finding>* out) const override {
    Text text(f.code);
    const std::string& s = text.s;
    auto check = [&](size_t off, const char* what) {
      // Enclosing-function window: back to the last line that closes a
      // top-level block (column-0 '}'), i.e. the end of the previous
      // function.
      size_t start = 0;
      for (size_t ls : text.line_start) {
        if (ls >= off) break;
        if (ls < s.size() && s[ls] == '}') start = ls;
      }
      const std::string window = s.substr(start, off - start);
      if (ContainsAny(window,
                      {".size()", ".empty(", "pos +", "remaining", "kMax"})) {
        return;
      }
      out->push_back(MakeFinding(
          text.LineOf(off),
          std::string(what) +
              " with no preceding remaining-bytes check in this "
              "function; a truncated frame reads out of bounds — check "
              "against .size()/.empty() first (or go through "
              "Reader::Take)"));
    };
    ForEachWord(f.code, "memcpy", [&](size_t li, size_t col) {
      check(text.line_start[li] + col, "memcpy");
    });
    size_t pos = 0;
    while ((pos = s.find(".data()", pos)) != std::string::npos) {
      size_t after = SkipSpaces(s, pos + 7);
      if (after < s.size() && (s[after] == '+' || s[after] == '-')) {
        check(pos, "pointer arithmetic on .data()");
      }
      pos += 7;
    }
    ForEachWord(f.code, "body", [&](size_t li, size_t col) {
      const std::string& line = f.code[li];
      size_t after = col + 4;
      if (after < line.size() && line[after] == '[') {
        check(text.line_start[li] + col, "buffer subscript");
      }
    });
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> BuildAllRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<NoFindEdgeRule>());
  rules.push_back(std::make_unique<IndexImmutableRule>());
  rules.push_back(std::make_unique<ContextQueryApiRule>());
  rules.push_back(std::make_unique<NotifyUnderLockRule>());
  rules.push_back(std::make_unique<DeterministicRandomRule>());
  rules.push_back(std::make_unique<IncludeHygieneRule>());
  rules.push_back(std::make_unique<SteadyClockTimingRule>());
  rules.push_back(std::make_unique<PoiKnnSeededRandomRule>());
  rules.push_back(std::make_unique<AnnotatedLockRule>());
  rules.push_back(std::make_unique<NoAllocInSettleLoopRule>());
  rules.push_back(std::make_unique<WireBoundsCheckRule>());
  return rules;
}

}  // namespace roadnet::lint
