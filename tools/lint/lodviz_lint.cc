// lodviz_lint v2: standalone project-invariant checker for the lodviz tree.
//
// A deliberately dependency-free (no libclang) static analyzer built on a
// comment/string-literal-aware lexer and a two-pass file model:
//
//   pass 1  lex every file into a token stream and build a structural model
//           (namespace / class / nested-class tracking via a classified
//           brace stack, per-class member declarations with their
//           thread-safety annotations, include directives, LINT-ALLOW
//           waivers);
//   pass 2  run per-file rules over each model, then the cross-file rules
//           (the lock-acquisition graph) over all models together.
//
// Rules (ids used in output and in LINT-EXPECT fixture comments):
//   header-guard             #ifndef/#define guard must be LODVIZ_<PATH>_H_
//   include-first            a .cc file must include its own header first
//   using-namespace-header   no `using namespace` at any scope in headers
//   naked-new                no naked new/delete in src/ (smart ptrs only)
//   io-print                 no std::cout / printf-family in src/ outside
//                            the table printer and logging sinks
//   unchecked-result         no ValueOrDie()/operator* /operator-> on a
//                            Result without a lexically preceding ok() or
//                            LODVIZ_CHECK_OK in an enclosing scope
//   no-raw-clock             no direct std::chrono clock `::now()` calls
//                            outside src/common/ and src/obs/; go through
//                            common/stopwatch.h so time is observable and
//                            mockable in one place
//   exec.no_raw_thread       raw std::thread construction belongs in
//                            src/exec/ only; everything else parallelizes
//                            through exec::ParallelFor / exec::ThreadPool
//   sparql.no_concrete_store no rdf::TripleStore / storage::DiskTripleStore
//                            in src/ outside the modules that own or fill a
//                            store (rdf, storage, core, workload); query,
//                            exploration and analysis code sees only the
//                            abstract rdf::TripleSource contract so every
//                            backend runs the same code
//   sparql.no_row_loop_in_batch_ops
//                            inside src/sparql/ functions whose name
//                            contains "Batch", a per-row virtual
//                            TripleSource::Scan call may not appear inside
//                            a loop (or per-row lambda) — batch operators
//                            extend whole runs; an intentional per-row
//                            probe carries a LINT-ALLOW rationale
//   concurrency.guarded_by   every mutable data member of a class that owns
//                            a Mutex/std::mutex must carry LODVIZ_GUARDED_BY
//                            / LODVIZ_PT_GUARDED_BY, be of an internally
//                            thread-safe type (std::atomic, obs::Counter/
//                            Gauge/Histogram, CondVar), be const, or carry
//                            an explicit `// LINT-ALLOW(concurrency.
//                            guarded_by): rationale` waiver
//   concurrency.lock_order   the static lock-acquisition graph declared by
//                            LODVIZ_ACQUIRED_BEFORE / LODVIZ_ACQUIRED_AFTER
//                            annotations on mutex members must be acyclic
//   config.no_env_knob       no getenv / secure_getenv outside
//                            src/exec/parallel.cc (LODVIZ_THREADS) and
//                            bench/bench_util.h (LODVIZ_BENCH_JSON); a
//                            behaviour is chosen by code or by an argument
//                            a caller passes, not by an environment switch
//   arch.layering            src/ includes must follow the layering DAG
//                            common -> obs -> exec -> rdf -> storage ->
//                            sparql -> domain tiers (geo/stats/onto/cube/
//                            hier -> graph/explore -> viz -> rec/workload)
//                            -> core; no module may include a module at or
//                            above its own layer
//
// Waivers: `// LINT-ALLOW(<rule>): <rationale>` on the offending line (or
// the line directly above it) suppresses that one rule there. The rationale
// is mandatory by convention: a waiver documents a contract (e.g. "written
// only during single-threaded construction"), not an opt-out.
//
// Usage:
//   lodviz_lint --root <repo-root> [dirs...]     (default: src bench tests tools)
//   lodviz_lint --expect --root <fixture-dir>    self-test mode: violations
//       must exactly match the `// LINT-EXPECT: <rule>` comments in the
//       fixture files (all rules applied regardless of path scoping).
//   lodviz_lint --self-test                      run the built-in lexer and
//       structure-model unit tests (no filesystem access).

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;  // path relative to the scan root
  int line = 0;
  std::string rule;
  std::string message;
};

struct Token {
  std::string text;
  int line = 0;
  bool ident = false;
};

// ---------------------------------------------------------------------------
// Lexer: source preparation
// ---------------------------------------------------------------------------

/// True for characters that may appear in an identifier (or number) token.
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// If `source[i]` starts a string/char literal prefix (u8, u, U, L —
/// optionally followed by R for raw strings), returns the prefix length
/// (0 for an unprefixed literal position). Requires that the character
/// before `i` is not an identifier character, so `value` or `myU"x"`-style
/// identifiers never match.
size_t LiteralPrefixLen(const std::string& source, size_t i) {
  const size_t n = source.size();
  if (i > 0 && IsIdentChar(source[i - 1])) return 0;
  size_t p = i;
  if (p < n && source[p] == 'u' && p + 1 < n && source[p + 1] == '8') {
    p += 2;
  } else if (p < n &&
             (source[p] == 'u' || source[p] == 'U' || source[p] == 'L')) {
    p += 1;
  }
  if (p < n && source[p] == 'R' && p + 1 < n && source[p + 1] == '"') {
    return p + 1 - i;  // prefix up to and including R
  }
  if (p > i && p < n && (source[p] == '"' || source[p] == '\'')) {
    return p - i;
  }
  return 0;
}

/// Returns `source` with comments and string/char literal contents replaced
/// by spaces (newlines kept), so token scans cannot match inside them.
///
/// Handles //-comments (including backslash-newline splices, which extend
/// the comment onto the next physical line), /* */ comments, "..." and
/// '...' with escapes, encoding prefixes (u8"x", L'c', ...), raw strings
/// R"delim(...)delim" with any prefix, and C++14 digit separators
/// (1'000'000 — the quotes are separators, not char-literal delimiters).
std::string StripCommentsAndStrings(const std::string& source) {
  std::string out = source;
  size_t i = 0;
  const size_t n = source.size();
  auto blank = [&](size_t from, size_t to) {
    for (size_t k = from; k < to && k < n; ++k) {
      if (out[k] != '\n') out[k] = ' ';
    }
  };
  while (i < n) {
    char c = source[i];
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      // A backslash immediately before the newline splices the next line
      // into this comment (translation phase 2 runs before comment
      // removal), so keep extending past spliced newlines.
      size_t end = i;
      for (;;) {
        end = source.find('\n', end);
        if (end == std::string::npos) {
          end = n;
          break;
        }
        size_t back = end;
        while (back > i && source[back - 1] == '\r') --back;
        if (back > i && source[back - 1] == '\\') {
          ++end;  // spliced: the comment continues on the next line
          continue;
        }
        break;
      }
      blank(i, end);
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      size_t end = source.find("*/", i + 2);
      end = (end == std::string::npos) ? n : end + 2;
      blank(i, end);
      i = end;
      continue;
    }
    const size_t prefix = LiteralPrefixLen(source, i);
    const size_t q = i + prefix;  // position of the quote (if any)
    if (q < n && source[q] == '"' && q > i && source[q - 1] == 'R') {
      // Raw string: R"delim( ... )delim" (with optional encoding prefix).
      size_t paren = source.find('(', q + 1);
      if (paren == std::string::npos) {
        ++i;
        continue;
      }
      std::string delim;
      delim.reserve(paren - q + 1);
      delim.push_back(')');
      delim.append(source, q + 1, paren - q - 1);
      delim.push_back('"');
      size_t end = source.find(delim, paren + 1);
      end = (end == std::string::npos) ? n : end + delim.size();
      blank(i, end);
      i = end;
      continue;
    }
    if (q < n && (source[q] == '"' || source[q] == '\'') &&
        (prefix > 0 || q == i)) {
      const char quote = source[q];
      if (quote == '\'' && q == i && i > 0 && IsIdentChar(source[i - 1])) {
        // Digit separator inside a numeric literal (1'000'000): part of
        // the number, not a char literal delimiter.
        ++i;
        continue;
      }
      size_t j = q + 1;
      while (j < n && source[j] != quote) {
        if (source[j] == '\\') ++j;
        ++j;
      }
      if (j < n) ++j;
      blank(q + 1, j);  // keep the quotes so tokenization stays sane
      blank(i, q);      // blank the encoding prefix too
      i = j;
      continue;
    }
    ++i;
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Tokenizes stripped source into identifiers and single punctuation chars
/// (with `::` and `->` kept as single tokens).
std::vector<Token> Tokenize(const std::string& stripped) {
  std::vector<Token> toks;
  int line = 1;
  size_t i = 0;
  const size_t n = stripped.size();
  while (i < n) {
    char c = stripped[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (IsIdentChar(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(stripped[j])) ++j;
      bool ident = !std::isdigit(static_cast<unsigned char>(c));
      toks.push_back({stripped.substr(i, j - i), line, ident});
      i = j;
    } else if (c == '-' && i + 1 < n && stripped[i + 1] == '>') {
      toks.push_back({"->", line, false});
      i += 2;
    } else if (c == ':' && i + 1 < n && stripped[i + 1] == ':') {
      toks.push_back({"::", line, false});
      i += 2;
    } else {
      toks.push_back({std::string(1, c), line, false});
      ++i;
    }
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Structural file model (pass 1)
// ---------------------------------------------------------------------------

/// One data- or function-member declaration inside a class body.
struct MemberDecl {
  std::string name;
  int line = 0;        // line of the member name
  int first_line = 0;  // first and last physical line of the declaration
  int last_line = 0;
  bool is_function = false;
  bool is_static = false;
  bool is_const = false;
  bool is_lockable = false;         // Mutex / std::mutex / shared_mutex ...
  bool is_threadsafe_type = false;  // std::atomic, obs::Counter, CondVar ...
  bool has_guard_annotation = false;  // [LODVIZ_][PT_]GUARDED_BY present
  /// Lock-order edges declared on this (mutex) member; targets are the raw
  /// annotation arguments, resolved against the owning class later.
  std::vector<std::pair<std::string, int>> acquired_before;  // (target, line)
  std::vector<std::pair<std::string, int>> acquired_after;
};

/// A class/struct definition with its qualified name ("storage::BufferPool"
/// or "storage::BufferPool::Shard"; the outer `lodviz::` and anonymous
/// namespaces are dropped).
struct ClassInfo {
  std::string qname;
  int line = 0;
  std::vector<MemberDecl> members;

  bool OwnsLock() const {
    for (const MemberDecl& m : members) {
      if (m.is_lockable && !m.is_function) return true;
    }
    return false;
  }
};

struct IncludeDirective {
  std::string path;  // as written between the quotes / angle brackets
  int line = 0;
  bool system = false;  // #include <...> (exempt from layering)
};

/// Everything pass 1 extracts from one file; pass 2 rules read only this.
struct FileModel {
  fs::path abs;
  std::string rel;
  std::string source;
  std::string stripped;
  std::vector<std::string> raw_lines;
  std::vector<std::string> stripped_lines;
  std::vector<Token> tokens;
  std::vector<ClassInfo> classes;
  std::vector<IncludeDirective> includes;
  /// line -> rules waived on that line and the next (// LINT-ALLOW(rule)).
  std::map<int, std::set<std::string>> allows;
};

/// Thread-safety annotation macros recognized on member declarations. The
/// trailing `(args)` group is consumed so annotation arguments never look
/// like function-parameter lists or member names.
const std::set<std::string>& AnnotationIdents() {
  static const std::set<std::string> kSet = {
      "LODVIZ_GUARDED_BY",      "GUARDED_BY",
      "LODVIZ_PT_GUARDED_BY",   "PT_GUARDED_BY",
      "LODVIZ_ACQUIRED_BEFORE", "ACQUIRED_BEFORE",
      "LODVIZ_ACQUIRED_AFTER",  "ACQUIRED_AFTER",
      "LODVIZ_REQUIRES",        "LODVIZ_EXCLUDES",
      "LODVIZ_ACQUIRE",         "LODVIZ_RELEASE",
      "LODVIZ_CAPABILITY",      "alignas",
  };
  return kSet;
}

bool IsLockableTypeToken(const std::string& t) {
  return t == "Mutex" || t == "mutex" || t == "shared_mutex" ||
         t == "recursive_mutex" || t == "timed_mutex" ||
         t == "recursive_timed_mutex";
}

/// Types that are internally synchronized and therefore exempt from
/// concurrency.guarded_by (lock-free atomics and the obs metric primitives
/// built on them; condition variables carry their own safety contract).
bool IsThreadSafeTypeToken(const std::string& t) {
  return t == "atomic" || t == "atomic_flag" || t == "once_flag" ||
         t == "condition_variable" || t == "condition_variable_any" ||
         t == "CondVar" || t == "Counter" || t == "Gauge" || t == "Histogram";
}

/// Joins annotation-argument tokens back into one target name per
/// (top-level) comma: {obs, ::, MetricRegistry, ::, mu_} ->
/// "obs::MetricRegistry::mu_".
std::vector<std::string> JoinAnnotationArgs(const std::vector<Token>& toks,
                                            size_t begin, size_t end) {
  std::vector<std::string> args;
  std::string cur;
  int depth = 0;
  for (size_t i = begin; i < end; ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") ++depth;
    if (t == ")") --depth;
    if (t == "," && depth == 0) {
      if (!cur.empty()) args.push_back(cur);
      cur.clear();
      continue;
    }
    cur += t;
  }
  if (!cur.empty()) args.push_back(cur);
  return args;
}

/// Classifies and records one member declaration (the token range
/// accumulated between `;`-boundaries at class-body depth).
void FinalizeMember(const std::vector<Token>& decl, ClassInfo* cls) {
  if (decl.empty()) return;
  for (const Token& t : decl) {
    if (t.text == "friend" || t.text == "using" || t.text == "typedef" ||
        t.text == "static_assert" || t.text == "operator" ||
        t.text == "template" || t.text == "enum") {
      return;  // not a data member
    }
  }
  MemberDecl m;
  m.first_line = decl.front().line;
  m.last_line = decl.back().line;
  int angle = 0;
  bool saw_assign = false;
  size_t name_index = decl.size();
  size_t type_end = decl.size();  // index where the member name was found
  for (size_t i = 0; i < decl.size(); ++i) {
    const Token& t = decl[i];
    if (t.ident && AnnotationIdents().count(t.text) && i + 1 < decl.size() &&
        decl[i + 1].text == "(") {
      // Consume the annotation and its argument group.
      const bool guard = t.text == "LODVIZ_GUARDED_BY" ||
                         t.text == "GUARDED_BY" ||
                         t.text == "LODVIZ_PT_GUARDED_BY" ||
                         t.text == "PT_GUARDED_BY";
      const bool before = t.text == "LODVIZ_ACQUIRED_BEFORE" ||
                          t.text == "ACQUIRED_BEFORE";
      const bool after =
          t.text == "LODVIZ_ACQUIRED_AFTER" || t.text == "ACQUIRED_AFTER";
      if (guard) m.has_guard_annotation = true;
      int depth = 0;
      size_t j = i + 1;
      for (; j < decl.size(); ++j) {
        if (decl[j].text == "(") ++depth;
        if (decl[j].text == ")" && --depth == 0) break;
      }
      if (before || after) {
        for (const std::string& arg :
             JoinAnnotationArgs(decl, i + 2, std::min(j, decl.size()))) {
          if (before) m.acquired_before.emplace_back(arg, t.line);
          if (after) m.acquired_after.emplace_back(arg, t.line);
        }
      }
      i = j;
      continue;
    }
    if (t.text == "[" && i + 1 < decl.size() && decl[i + 1].text == "[") {
      // [[nodiscard]]-style attribute: skip to the closing ]].
      size_t j = i + 2;
      while (j + 1 < decl.size() &&
             !(decl[j].text == "]" && decl[j + 1].text == "]")) {
        ++j;
      }
      i = j + 1;
      continue;
    }
    if (t.text == "<") {
      ++angle;
      continue;
    }
    if (t.text == ">") {
      if (angle > 0) --angle;
      continue;
    }
    if (angle > 0) continue;  // inside template arguments
    if (t.text == "=") {
      saw_assign = true;
      continue;
    }
    if (t.text == "(" && !saw_assign) {
      // A top-level parameter list before any initializer: this is a
      // function (method, constructor, or destructor) declaration.
      m.is_function = true;
      int depth = 0;
      size_t j = i;
      for (; j < decl.size(); ++j) {
        if (decl[j].text == "(") ++depth;
        if (decl[j].text == ")" && --depth == 0) break;
      }
      i = j;
      continue;
    }
    if (t.text == "[" && !saw_assign) {
      // Array extent: the member name was the identifier before it.
      size_t j = i;
      int depth = 0;
      for (; j < decl.size(); ++j) {
        if (decl[j].text == "[") ++depth;
        if (decl[j].text == "]" && --depth == 0) break;
      }
      i = j;
      continue;
    }
    if (saw_assign) continue;  // initializer expression: not the name
    if (t.text == "static") m.is_static = true;
    if (t.text == "constexpr") m.is_static = true;  // implies static storage
    if (t.text == "const") m.is_const = true;
    if (t.ident && t.text != "static" && t.text != "constexpr" &&
        t.text != "const" && t.text != "mutable" && t.text != "inline" &&
        t.text != "volatile" && t.text != "struct" && t.text != "class") {
      name_index = i;
      type_end = i;
    }
  }
  if (m.is_function || name_index >= decl.size()) {
    if (m.is_function) {
      m.name = "(function)";
      cls->members.push_back(std::move(m));
    }
    return;
  }
  m.name = decl[name_index].text;
  m.line = decl[name_index].line;
  // The type is every depth-0 identifier before the name.
  int angle2 = 0;
  for (size_t i = 0; i < type_end; ++i) {
    const Token& t = decl[i];
    if (t.text == "<") {
      ++angle2;
      continue;
    }
    if (t.text == ">") {
      if (angle2 > 0) --angle2;
      continue;
    }
    if (angle2 > 0 || !t.ident) continue;
    if (IsLockableTypeToken(t.text)) m.is_lockable = true;
    if (IsThreadSafeTypeToken(t.text)) m.is_threadsafe_type = true;
  }
  cls->members.push_back(std::move(m));
}

/// Builds the namespace/class structure model from the token stream.
/// Preprocessor lines (and their backslash continuations) are excluded so
/// unbalanced braces inside macro definitions cannot corrupt the scope
/// stack.
void BuildStructure(FileModel* model) {
  // Mark preprocessor lines (1-based), including continuation lines.
  std::vector<bool> is_pp(model->stripped_lines.size() + 2, false);
  bool continuing = false;
  for (size_t i = 0; i < model->stripped_lines.size(); ++i) {
    const std::string& line = model->stripped_lines[i];
    bool pp = continuing;
    if (!pp) {
      size_t first = line.find_first_not_of(" \t");
      pp = first != std::string::npos && line[first] == '#';
    }
    is_pp[i + 1] = pp;
    size_t last = line.find_last_not_of(" \t\r");
    continuing = pp && last != std::string::npos && line[last] == '\\';
  }

  enum class ScopeKind { kNamespace, kClass, kEnum, kBlock };
  struct Scope {
    ScopeKind kind;
    std::string name;        // namespace or class segment ("" = anonymous)
    size_t class_index = 0;  // into model->classes, for kClass
    bool resume_decl = false;  // kBlock opened by a brace-initializer
  };
  std::vector<Scope> stack;
  std::vector<Token> decl;  // tokens of the declaration being accumulated

  auto qualified = [&](const std::string& leaf) {
    std::string q;
    for (const Scope& s : stack) {
      if ((s.kind == ScopeKind::kNamespace || s.kind == ScopeKind::kClass) &&
          !s.name.empty() && s.name != "lodviz") {
        q += s.name + "::";
      }
    }
    q += leaf;
    return q;
  };

  auto in_class = [&]() {
    return !stack.empty() && stack.back().kind == ScopeKind::kClass;
  };
  auto in_enum = [&]() {
    return !stack.empty() && stack.back().kind == ScopeKind::kEnum;
  };

  const std::vector<Token>& toks = model->tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.line < static_cast<int>(is_pp.size()) && is_pp[t.line]) continue;
    if (in_enum() && t.text != "}" && t.text != "{") continue;

    if (t.text == "{") {
      // Classify the scope this brace opens from the accumulated decl.
      bool is_namespace = false, is_class = false, is_enum_scope = false;
      bool has_paren = false, has_assign = false;
      std::string name;
      int angle = 0;
      for (size_t k = 0; k < decl.size(); ++k) {
        const Token& d = decl[k];
        if (d.text == "<") ++angle;
        if (d.text == ">" && angle > 0) --angle;
        if (angle > 0) continue;
        if (d.ident && AnnotationIdents().count(d.text) &&
            k + 1 < decl.size() && decl[k + 1].text == "(") {
          int depth = 0;
          while (k < decl.size()) {  // skip the annotation argument group
            if (decl[k].text == "(") ++depth;
            if (decl[k].text == ")" && --depth == 0) break;
            ++k;
          }
          continue;
        }
        if (d.text == "namespace") is_namespace = true;
        if (d.text == "enum") is_enum_scope = true;
        if ((d.text == "class" || d.text == "struct" || d.text == "union") &&
            !is_enum_scope) {
          is_class = true;
        }
        if (d.text == "=") has_assign = true;
        if (d.text == "(" && !has_assign) has_paren = true;
        if (d.ident && (is_namespace || is_class) && d.text != "namespace" &&
            d.text != "class" && d.text != "struct" && d.text != "union" &&
            d.text != "final" && d.text != "public" && d.text != "private" &&
            d.text != "protected" && d.text != "virtual" &&
            !AnnotationIdents().count(d.text)) {
          // Base-clause names come after the introducer ':'; stop at it.
          name = d.text;
        }
        if (d.text == ":" && (is_namespace || is_class)) break;
      }
      if (is_namespace) {
        stack.push_back({ScopeKind::kNamespace, name, 0, false});
        decl.clear();
      } else if (is_class && !has_paren) {
        ClassInfo cls;
        cls.qname = qualified(name.empty() ? "(anon)" : name);
        cls.line = t.line;
        model->classes.push_back(std::move(cls));
        stack.push_back(
            {ScopeKind::kClass, name, model->classes.size() - 1, false});
        decl.clear();
      } else if (is_enum_scope) {
        stack.push_back({ScopeKind::kEnum, name, 0, false});
        decl.clear();
      } else {
        // Function body, initializer list, or brace initializer. Inside a
        // class body, a brace with no preceding parameter list is a member
        // brace-initializer: keep the declaration alive across it.
        const bool initializer = in_class() && !has_paren;
        stack.push_back({ScopeKind::kBlock, "", 0, initializer});
        if (!initializer) {
          if (in_class()) {
            // (The just-pushed block hides the class; check the parent.)
          }
        }
      }
      continue;
    }
    if (t.text == "}") {
      if (stack.empty()) continue;
      Scope closed = stack.back();
      stack.pop_back();
      if (closed.kind == ScopeKind::kBlock && !closed.resume_decl) {
        // A function body (or similar) ended: the declaration is complete.
        if (in_class()) {
          FinalizeMember(decl, &model->classes[stack.back().class_index]);
        }
        decl.clear();
      }
      continue;
    }
    // Only accumulate declaration tokens at namespace/class level (or
    // top level); function bodies and enums are opaque.
    bool at_decl_level =
        stack.empty() || stack.back().kind == ScopeKind::kNamespace ||
        stack.back().kind == ScopeKind::kClass ||
        (stack.back().kind == ScopeKind::kBlock && stack.back().resume_decl);
    if (!at_decl_level) continue;
    if (t.text == ";") {
      if (in_class() ||
          (!stack.empty() && stack.back().kind == ScopeKind::kBlock &&
           stack.back().resume_decl)) {
        // Find the innermost class on the stack (a brace-initializer block
        // may sit on top of it).
        for (size_t s = stack.size(); s-- > 0;) {
          if (stack[s].kind == ScopeKind::kClass) {
            FinalizeMember(decl, &model->classes[stack[s].class_index]);
            break;
          }
          if (stack[s].kind != ScopeKind::kBlock || !stack[s].resume_decl) {
            break;
          }
        }
      }
      decl.clear();
      continue;
    }
    // Access specifiers reset the declaration accumulator.
    if (in_class() && t.ident &&
        (t.text == "public" || t.text == "private" || t.text == "protected") &&
        i + 1 < toks.size() && toks[i + 1].text == ":") {
      decl.clear();
      ++i;
      continue;
    }
    decl.push_back(t);
  }
}

/// Collects `#include "..."` directives: detection on the stripped view
/// (commented-out includes are invisible), path from the raw line (the path
/// itself lives inside a string literal, which stripping blanks).
void CollectIncludes(FileModel* model) {
  for (size_t i = 0; i < model->stripped_lines.size(); ++i) {
    if (model->stripped_lines[i].find("#include") == std::string::npos) {
      continue;
    }
    const std::string& raw =
        i < model->raw_lines.size() ? model->raw_lines[i] : std::string();
    size_t open = raw.find('"');
    if (open != std::string::npos) {
      size_t close = raw.find('"', open + 1);
      if (close == std::string::npos) continue;
      model->includes.push_back({raw.substr(open + 1, close - open - 1),
                                 static_cast<int>(i + 1), false});
      continue;
    }
    open = raw.find('<');
    if (open == std::string::npos) continue;
    size_t close = raw.find('>', open + 1);
    if (close == std::string::npos) continue;
    model->includes.push_back(
        {raw.substr(open + 1, close - open - 1), static_cast<int>(i + 1),
         true});
  }
}

/// Collects `// LINT-ALLOW(rule): rationale` waivers from the raw source.
void CollectAllows(FileModel* model) {
  for (size_t i = 0; i < model->raw_lines.size(); ++i) {
    const std::string& line = model->raw_lines[i];
    size_t pos = 0;
    while ((pos = line.find("LINT-ALLOW(", pos)) != std::string::npos) {
      size_t open = pos + 10;  // index of '('
      size_t close = line.find(')', open);
      if (close == std::string::npos) break;
      std::string rule = line.substr(open + 1, close - open - 1);
      rule.erase(0, rule.find_first_not_of(" \t"));
      rule.erase(rule.find_last_not_of(" \t") + 1);
      if (!rule.empty()) {
        model->allows[static_cast<int>(i + 1)].insert(rule);
      }
      pos = close;
    }
  }
}

/// True if `rule` is waived for a violation on `line` (a LINT-ALLOW on the
/// same line or the line directly above).
bool IsAllowed(const FileModel& model, const std::string& rule, int line) {
  for (int l : {line, line - 1}) {
    auto it = model.allows.find(l);
    if (it != model.allows.end() && it->second.count(rule)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

/// src/common/result.h -> LODVIZ_COMMON_RESULT_H_ ; bench/x.h keeps `bench/`.
std::string ExpectedGuard(const std::string& rel) {
  std::string path = rel;
  if (path.rfind("src/", 0) == 0) path = path.substr(4);
  std::string guard = "LODVIZ_";
  for (char c : path) {
    guard += IsIdentChar(c) ? static_cast<char>(std::toupper(
                                  static_cast<unsigned char>(c)))
                            : '_';
  }
  guard += '_';
  return guard;
}

void CheckHeaderGuard(const FileModel& m, std::vector<Violation>* out) {
  const std::string want = ExpectedGuard(m.rel);
  for (size_t i = 0; i < m.stripped_lines.size(); ++i) {
    std::istringstream in(m.stripped_lines[i]);
    std::string directive, name;
    in >> directive >> name;
    if (directive == "#pragma" && name == "once") {
      out->push_back({m.rel, static_cast<int>(i + 1), "header-guard",
                      "use an include guard named " + want +
                          ", not #pragma once"});
      return;
    }
    if (directive != "#ifndef") continue;
    if (name != want) {
      out->push_back({m.rel, static_cast<int>(i + 1), "header-guard",
                      "guard is '" + name + "', expected '" + want + "'"});
    }
    return;
  }
  out->push_back({m.rel, 1, "header-guard", "missing include guard " + want});
}

void CheckIncludeFirst(const FileModel& m, std::vector<Violation>* out) {
  fs::path own_header = m.abs;
  own_header.replace_extension(".h");
  if (!fs::exists(own_header)) return;
  std::string want = m.rel.substr(0, m.rel.size() - 3) + ".h";
  if (want.rfind("src/", 0) == 0) want = want.substr(4);
  if (m.includes.empty()) return;
  if (m.includes.front().system || m.includes.front().path != want) {
    out->push_back({m.rel, m.includes.front().line, "include-first",
                    "first include must be \"" + want + "\""});
  }
}

void CheckUsingNamespace(const FileModel& m, std::vector<Violation>* out) {
  const std::vector<Token>& toks = m.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text == "using" && toks[i + 1].text == "namespace") {
      out->push_back({m.rel, toks[i].line, "using-namespace-header",
                      "`using namespace` in a header pollutes every "
                      "includer's scope"});
    }
  }
}

void CheckNakedNewDelete(const FileModel& m, std::vector<Violation>* out) {
  const std::vector<Token>& toks = m.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "new") {
      // `operator new` declarations are fine; expressions are not.
      if (i > 0 && toks[i - 1].text == "operator") continue;
      out->push_back({m.rel, toks[i].line, "naked-new",
                      "naked `new`; use std::make_unique/static storage"});
    } else if (t == "delete") {
      // `= delete` (deleted functions) and `operator delete` are fine.
      if (i > 0 &&
          (toks[i - 1].text == "=" || toks[i - 1].text == "operator")) {
        continue;
      }
      out->push_back({m.rel, toks[i].line, "naked-new",
                      "naked `delete`; ownership must be RAII-managed"});
    }
  }
}

bool IoPrintAllowlisted(const std::string& rel) {
  return rel.find("table_printer") != std::string::npos ||
         rel.find("common/logging") != std::string::npos;
}

void CheckIoPrint(const FileModel& m, std::vector<Violation>* out) {
  for (const Token& t : m.tokens) {
    if (!t.ident) continue;
    if (t.text == "cout" || t.text == "printf" || t.text == "fprintf" ||
        t.text == "puts" || t.text == "putchar") {
      out->push_back({m.rel, t.line, "io-print",
                      "`" + t.text +
                          "` in src/; route output through an ostream& "
                          "parameter or common/logging"});
    }
  }
}

/// Only common/stopwatch.h (and the obs layer built on it) may read the
/// std::chrono clocks directly; everything else must go through Stopwatch
/// so timing is centralized, observable, and swappable.
void CheckRawClock(const FileModel& m, std::vector<Violation>* out) {
  const std::vector<Token>& toks = m.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t != "steady_clock" && t != "system_clock" &&
        t != "high_resolution_clock") {
      continue;
    }
    if (toks[i + 1].text == "::" && toks[i + 2].text == "now") {
      out->push_back({m.rel, toks[i].line, "no-raw-clock",
                      "direct std::chrono::" + t +
                          "::now(); use common/stopwatch.h (Stopwatch / "
                          "Stopwatch::Now) instead"});
    }
  }
}

/// exec.no_raw_thread: raw std::thread construction belongs in src/exec/
/// only — every other subsystem parallelizes through exec::ParallelFor /
/// exec::ThreadPool so thread count, shutdown order, and per-worker
/// observability stay centralized (and LODVIZ_THREADS=1 can force the
/// deterministic serial mode). `std::thread::hardware_concurrency()` is a
/// static query, not a thread, and stays allowed.
void CheckRawThread(const FileModel& m, std::vector<Violation>* out) {
  const std::vector<Token>& toks = m.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "std" || toks[i + 1].text != "::" ||
        toks[i + 2].text != "thread") {
      continue;
    }
    if (i + 3 < toks.size() && toks[i + 3].text == "::") continue;
    out->push_back({m.rel, toks[i].line, "exec.no_raw_thread",
                    "raw std::thread outside src/exec/; parallelize via "
                    "exec::ParallelFor / exec::ThreadPool (exec/parallel.h) "
                    "so thread lifecycle, shutdown, and observability stay "
                    "in one subsystem"});
  }
}

/// The modules that may name a concrete store: the stores themselves
/// (rdf, storage), the facade that owns one and the archetype probe that
/// copies it to disk (core), and the generator that fills one (workload).
bool ConcreteStoreSanctioned(const std::string& rel) {
  for (const char* dir :
       {"src/rdf/", "src/storage/", "src/core/", "src/workload/"}) {
    if (rel.rfind(dir, 0) == 0) return true;
  }
  return false;
}

/// sparql.no_concrete_store: every src/ module other than the store owners
/// (ConcreteStoreSanctioned) must depend only on the abstract
/// rdf::TripleSource contract. Naming a concrete store (the in-memory
/// TripleStore or the disk-resident DiskTripleStore) in the query layer or
/// an exploration module re-couples it to one backend and silently breaks
/// the memory/disk parity guarantee the core engine relies on.
void CheckNoConcreteStore(const FileModel& m, std::vector<Violation>* out) {
  for (const Token& t : m.tokens) {
    if (!t.ident) continue;
    if (t.text == "TripleStore" || t.text == "DiskTripleStore") {
      out->push_back({m.rel, t.line, "sparql.no_concrete_store",
                      "`" + t.text +
                          "` outside src/{rdf,storage,core,workload}; "
                          "query and exploration code may only see the "
                          "abstract rdf::TripleSource interface "
                          "(rdf/triple_source.h)"});
    }
  }
}

/// The two sanctioned environment reads: the worker-thread count
/// (LODVIZ_THREADS) and where bench programs write telemetry
/// (LODVIZ_BENCH_JSON).
bool EnvReadSanctioned(const std::string& rel) {
  return rel == "src/exec/parallel.cc" || rel == "bench/bench_util.h";
}

/// config.no_env_knob: an environment variable read somewhere inside the
/// program is an option no call site shows, and each one doubles the
/// configurations the tests and gates must cover. Behaviour is chosen by
/// code, or by an argument a caller passes; only the EnvReadSanctioned
/// files may read the environment.
void CheckNoEnvKnob(const FileModel& m, std::vector<Violation>* out) {
  for (const Token& t : m.tokens) {
    if (!t.ident) continue;
    if (t.text == "getenv" || t.text == "secure_getenv") {
      out->push_back({m.rel, t.line, "config.no_env_knob",
                      "`" + t.text +
                          "` outside src/exec/parallel.cc and "
                          "bench/bench_util.h; pass the value as an "
                          "argument instead of an environment switch"});
    }
  }
}

/// sparql.no_row_loop_in_batch_ops: the whole point of the vectorized
/// executor is that per-row virtual dispatch into the TripleSource
/// disappears from inner loops — a batch operator that calls `Scan` once
/// per row has silently regressed to row-at-a-time execution with extra
/// copies.
/// Inside any function whose name contains "Batch" (the batch-operator
/// naming convention: EvalBgpBatches, FilterBatches, ...), a `.Scan(` /
/// `->Scan(` call lexically inside a loop body — `for`, `while`, `do`, or
/// a lambda, since batch code expresses its per-row iteration as callbacks
/// handed to BatchListView::ForEachRow / exec::ParallelReduce — must carry
/// a LINT-ALLOW rationale (a per-solution index walk that no batch
/// primitive can replace).
///
/// Brace classification is lexical: for each `{`, look back — `) {` whose
/// matching `(` follows `for`/`while` is a loop; whose matching `(`
/// follows `]` is a lambda (treated as a loop body); whose matching `(`
/// follows an identifier containing "Batch" is a batch-operator function
/// body; `do {` is a loop. A Scan call fires when the brace stack holds a
/// batch-function frame with a loop frame above it.
void CheckNoRowLoopInBatchOps(const FileModel& m, std::vector<Violation>* out) {
  const std::vector<Token>& toks = m.tokens;
  const size_t n = toks.size();
  enum class Brace { kOther, kBatchFn, kLoop };

  // Classifies the brace at token index `i` by scanning backwards.
  auto classify = [&](size_t i) {
    // Skip cv-qualifiers and specifiers between `)` and `{`.
    size_t j = i;
    while (j > 0 &&
           (toks[j - 1].text == "const" || toks[j - 1].text == "noexcept" ||
            toks[j - 1].text == "override" || toks[j - 1].text == "mutable")) {
      --j;
    }
    if (j > 0 && toks[j - 1].text == "do") return Brace::kLoop;
    if (j == 0 || toks[j - 1].text != ")") return Brace::kOther;
    // Match the parameter/condition list backwards.
    int depth = 0;
    size_t k = j - 1;
    for (;; --k) {
      if (toks[k].text == ")") ++depth;
      if (toks[k].text == "(" && --depth == 0) break;
      if (k == 0) return Brace::kOther;
    }
    if (k == 0) return Brace::kOther;
    const Token& head = toks[k - 1];
    if (head.text == "for" || head.text == "while") return Brace::kLoop;
    if (head.text == "]") return Brace::kLoop;  // lambda: per-row callback
    if (head.ident && head.text.find("Batch") != std::string::npos) {
      return Brace::kBatchFn;
    }
    return Brace::kOther;
  };

  std::vector<Brace> stack;
  for (size_t i = 0; i < n; ++i) {
    const std::string& t = toks[i].text;
    if (t == "{") {
      stack.push_back(classify(i));
      continue;
    }
    if (t == "}") {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    if (t != "Scan" || i == 0 || i + 1 >= n || toks[i + 1].text != "(" ||
        (toks[i - 1].text != "->" && toks[i - 1].text != ".")) {
      continue;
    }
    bool in_batch_fn = false, in_loop = false;
    for (Brace b : stack) {
      if (b == Brace::kBatchFn) {
        in_batch_fn = true;
        in_loop = false;  // loops outside the innermost batch fn don't count
      } else if (in_batch_fn && b == Brace::kLoop) {
        in_loop = true;
      }
    }
    if (in_batch_fn && in_loop) {
      out->push_back(
          {m.rel, toks[i].line, "sparql.no_row_loop_in_batch_ops",
           "per-row Scan() call inside a loop in a batch operator; extend "
           "whole runs (ColumnBatch::AppendRun) instead, or document the "
           "intentional per-row probe with `// LINT-ALLOW("
           "sparql.no_row_loop_in_batch_ops): <rationale>`"});
    }
  }
}

/// Scope-stack analysis for unchecked Result access.
///
/// Tracks (a) identifiers declared as `Result<...> name`, and (b)
/// identifiers that appeared in `name.ok()` / LODVIZ_CHECK_OK(name) — the
/// "checked" set, per brace scope. `name.ValueOrDie()`, `*name`, and
/// `name->` require `name` to be checked in an enclosing scope. Calling
/// ValueOrDie() directly on a temporary (`Foo().ValueOrDie()`) always fires.
void CheckUncheckedResult(const FileModel& m, std::vector<Violation>* out) {
  struct Scope {
    std::set<std::string> checked;
    std::set<std::string> result_vars;
  };
  const std::vector<Token>& toks = m.tokens;
  std::vector<Scope> scopes(1);
  auto is_checked = [&](const std::string& name) {
    for (const Scope& s : scopes) {
      if (s.checked.count(name)) return true;
    }
    return false;
  };
  auto is_result_var = [&](const std::string& name) {
    for (const Scope& s : scopes) {
      if (s.result_vars.count(name)) return true;
    }
    return false;
  };
  const size_t n = toks.size();
  for (size_t i = 0; i < n; ++i) {
    const std::string& t = toks[i].text;
    if (t == "{") {
      scopes.emplace_back();
      continue;
    }
    if (t == "}") {
      if (scopes.size() > 1) scopes.pop_back();
      continue;
    }
    // Declaration: Result < ... > name ( = | ; | { )
    if (t == "Result" && i + 1 < n && toks[i + 1].text == "<") {
      int depth = 0;
      size_t j = i + 1;
      for (; j < n; ++j) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">" && --depth == 0) break;
      }
      if (j + 2 < n && toks[j + 1].ident) {
        const std::string& after = toks[j + 2].text;
        if (after == "=" || after == ";" || after == "{") {
          scopes.back().result_vars.insert(toks[j + 1].text);
        }
      }
      continue;
    }
    // Check marking: name.ok(  or  CHECK_OK-style macro (name...
    if (t == "ok" && i + 1 < n && toks[i + 1].text == "(" && i >= 2 &&
        toks[i - 1].text == "." && toks[i - 2].ident) {
      scopes.back().checked.insert(toks[i - 2].text);
      continue;
    }
    if ((t == "LODVIZ_CHECK_OK" || t == "CHECK_OK" || t == "ASSERT_OK" ||
         t == "EXPECT_OK") &&
        i + 2 < n && toks[i + 1].text == "(" && toks[i + 2].ident) {
      scopes.back().checked.insert(toks[i + 2].text);
      continue;
    }
    // Use: name.ValueOrDie(  or  std::move(name).ValueOrDie(
    if (t == "ValueOrDie" && i >= 1 && toks[i - 1].text == ".") {
      std::string target;
      if (i >= 2 && toks[i - 2].ident) {
        target = toks[i - 2].text;
      } else if (i >= 2 && toks[i - 2].text == ")") {
        int depth = 0;
        for (size_t j = i - 2; j + 1 > 0; --j) {
          if (toks[j].text == ")") ++depth;
          if (toks[j].text == "(" && --depth == 0) break;
          if (toks[j].ident && toks[j].text != "std" &&
              toks[j].text != "move") {
            target = toks[j].text;
          }
        }
      }
      if (target.empty() || !is_checked(target)) {
        out->push_back(
            {m.rel, toks[i].line, "unchecked-result",
             target.empty()
                 ? "ValueOrDie() on a temporary; bind it and check ok() "
                   "first (or use LODVIZ_ASSIGN_OR_RETURN)"
                 : "ValueOrDie() on '" + target +
                       "' with no lexically preceding '" + target +
                       ".ok()' / CHECK_OK in scope"});
      }
      continue;
    }
    // Use: *name  (unary) or name->  on a known Result variable.
    if (t == "*" && i + 1 < n && toks[i + 1].ident &&
        is_result_var(toks[i + 1].text) && !is_checked(toks[i + 1].text)) {
      bool binary = i > 0 && (toks[i - 1].ident || toks[i - 1].text == ")" ||
                              toks[i - 1].text == "]");
      if (!binary) {
        out->push_back({m.rel, toks[i].line, "unchecked-result",
                        "operator* on Result '" + toks[i + 1].text +
                            "' with no preceding ok() check in scope"});
      }
      continue;
    }
    if (t == "->" && i > 0 && toks[i - 1].ident &&
        is_result_var(toks[i - 1].text) && !is_checked(toks[i - 1].text)) {
      out->push_back({m.rel, toks[i].line, "unchecked-result",
                      "operator-> on Result '" + toks[i - 1].text +
                          "' with no preceding ok() check in scope"});
    }
  }
}

// ---------------------------------------------------------------------------
// concurrency.guarded_by
// ---------------------------------------------------------------------------

/// Every mutable data member of a class that owns a mutex must be tied to
/// that mutex (GUARDED_BY / PT_GUARDED_BY), be internally thread-safe
/// (atomics, obs counters), be const/static, or carry an explicit
/// LINT-ALLOW waiver documenting why it is safe unguarded. This is what
/// keeps "which lock protects this field" a checkable property instead of
/// a code-review convention as the concurrent serving layer grows.
void CheckGuardedBy(const FileModel& m, std::vector<Violation>* out) {
  for (const ClassInfo& cls : m.classes) {
    if (!cls.OwnsLock()) continue;
    for (const MemberDecl& mem : cls.members) {
      if (mem.is_function || mem.is_static || mem.is_const) continue;
      if (mem.is_lockable || mem.is_threadsafe_type) continue;
      if (mem.has_guard_annotation) continue;
      bool waived = false;
      for (int l = mem.first_line - 1; l <= mem.last_line && !waived; ++l) {
        auto it = m.allows.find(l);
        waived = it != m.allows.end() &&
                 it->second.count("concurrency.guarded_by") > 0;
      }
      if (waived) continue;
      out->push_back(
          {m.rel, mem.line, "concurrency.guarded_by",
           "member '" + mem.name + "' of mutex-owning class '" + cls.qname +
               "' has no LODVIZ_GUARDED_BY/PT_GUARDED_BY; annotate it, or "
               "waive with `// LINT-ALLOW(concurrency.guarded_by): "
               "<rationale>`"});
    }
  }
}

// ---------------------------------------------------------------------------
// concurrency.lock_order (cross-file)
// ---------------------------------------------------------------------------

/// One declared acquisition-order edge: `from` may be held when `to` is
/// acquired (from LODVIZ_ACQUIRED_BEFORE(to) on `from`, or
/// LODVIZ_ACQUIRED_AFTER(from) on `to`).
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
};

/// Normalizes an annotation argument or node name: drops the `lodviz::`
/// prefix; unqualified names resolve to the owning class.
std::string NormalizeLockName(const std::string& name,
                              const std::string& owner_qname) {
  std::string s = name;
  if (s.rfind("lodviz::", 0) == 0) s = s.substr(8);
  if (s.find("::") == std::string::npos) s = owner_qname + "::" + s;
  return s;
}

void CollectLockEdges(const FileModel& m, std::vector<LockEdge>* edges) {
  for (const ClassInfo& cls : m.classes) {
    for (const MemberDecl& mem : cls.members) {
      if (mem.is_function) continue;
      const std::string self = cls.qname + "::" + mem.name;
      for (const auto& [target, line] : mem.acquired_before) {
        edges->push_back(
            {self, NormalizeLockName(target, cls.qname), m.rel, line});
      }
      for (const auto& [target, line] : mem.acquired_after) {
        edges->push_back(
            {NormalizeLockName(target, cls.qname), self, m.rel, line});
      }
    }
  }
}

/// Builds the acquisition graph and reports every edge that participates in
/// a cycle. A cycle means two code paths may acquire the same pair of locks
/// in opposite orders — a latent deadlock the type system cannot see.
void CheckLockOrder(const std::vector<LockEdge>& edges,
                    std::vector<Violation>* out) {
  std::map<std::string, std::vector<size_t>> adj;  // node -> edge indexes
  for (size_t i = 0; i < edges.size(); ++i) {
    adj[edges[i].from].push_back(i);
    adj.try_emplace(edges[i].to);
  }
  // Iterative DFS, three colors; every back edge closes a cycle made of the
  // stack segment from the revisited node to the top.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::set<size_t> cycle_edges;
  for (const auto& [start, unused] : adj) {
    if (color[start] != 0) continue;
    // Stack frames: (node, next out-edge position, incoming edge index).
    struct Frame {
      std::string node;
      size_t next = 0;
      size_t in_edge = static_cast<size_t>(-1);
    };
    std::vector<Frame> stack{{start, 0, static_cast<size_t>(-1)}};
    color[start] = 1;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const std::vector<size_t>& outs = adj[f.node];
      if (f.next >= outs.size()) {
        color[f.node] = 2;
        stack.pop_back();
        continue;
      }
      size_t e = outs[f.next++];
      const std::string& to = edges[e].to;
      if (color[to] == 1) {
        // Back edge: collect the cycle (stack frames from `to` upward).
        cycle_edges.insert(e);
        for (size_t s = stack.size(); s-- > 0;) {
          if (stack[s].node == to) break;  // in_edge enters from outside
          if (stack[s].in_edge != static_cast<size_t>(-1)) {
            cycle_edges.insert(stack[s].in_edge);
          }
        }
      } else if (color[to] == 0) {
        color[to] = 1;
        stack.push_back({to, 0, e});
      }
    }
  }
  std::set<std::tuple<std::string, int, std::string>> reported;
  for (size_t e : cycle_edges) {
    const LockEdge& edge = edges[e];
    if (!reported.insert({edge.file, edge.line, edge.from}).second) continue;
    out->push_back(
        {edge.file, edge.line, "concurrency.lock_order",
         "lock-order cycle: the acquisition graph edge '" + edge.from +
             "' -> '" + edge.to +
             "' participates in a cycle; two paths may take these mutexes "
             "in opposite orders (potential deadlock)"});
  }
}

// ---------------------------------------------------------------------------
// arch.layering
// ---------------------------------------------------------------------------

/// The include DAG, bottom-up. A module may include itself and any module
/// with a strictly lower rank. Modules sharing a rank are peers and must
/// not include each other — the SPARQL serving layer (`serve`) slots in
/// above `sparql` without ever being able to create a cycle.
const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},  {"obs", 1},    {"exec", 2},  {"rdf", 3},
      {"storage", 4}, {"sparql", 5}, {"serve", 6}, {"geo", 6},
      {"stats", 6},   {"onto", 6},   {"cube", 6},  {"hier", 6},
      {"graph", 7},   {"explore", 7}, {"viz", 8},  {"rec", 9},
      {"workload", 9}, {"core", 10},
  };
  return kRanks;
}

/// Module name for a path like "src/sparql/ast.h" ("" if not a src module).
std::string ModuleOf(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  std::string mod = rel.substr(4, slash - 4);
  return LayerRanks().count(mod) ? mod : "";
}

void CheckLayering(const FileModel& m, std::vector<Violation>* out) {
  const std::string mod = ModuleOf(m.rel);
  if (mod.empty()) return;
  const int my_rank = LayerRanks().at(mod);
  for (const IncludeDirective& inc : m.includes) {
    if (inc.system) continue;
    size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;
    const std::string dep = inc.path.substr(0, slash);
    auto it = LayerRanks().find(dep);
    if (it == LayerRanks().end()) continue;
    if (dep == mod || it->second < my_rank) continue;
    out->push_back(
        {m.rel, inc.line, "arch.layering",
         "module '" + mod + "' (layer " + std::to_string(my_rank) +
             ") includes \"" + inc.path + "\" from '" + dep + "' (layer " +
             std::to_string(it->second) +
             "), which is not below it; the include DAG is common -> obs -> "
             "exec -> rdf -> storage -> sparql -> domain tiers -> core"});
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Options {
  fs::path root;
  std::vector<std::string> dirs;
  bool expect_mode = false;
};

bool ShouldSkipDir(const std::string& name) {
  return name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
         (!name.empty() && name[0] == '.');
}

/// Pass 1: lex + model one file.
FileModel BuildModel(const fs::path& abs, const std::string& rel) {
  FileModel m;
  m.abs = abs;
  m.rel = rel;
  std::ifstream in(abs, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  m.source = buf.str();
  m.stripped = StripCommentsAndStrings(m.source);
  m.raw_lines = SplitLines(m.source);
  m.stripped_lines = SplitLines(m.stripped);
  m.tokens = Tokenize(m.stripped);
  BuildStructure(&m);
  CollectIncludes(&m);
  CollectAllows(&m);
  return m;
}

/// Pass 2: per-file rules (path scoping disabled in expect mode so fixture
/// files exercise every rule).
void LintFile(const FileModel& m, bool all_rules, std::vector<Violation>* out) {
  const std::string& rel = m.rel;
  const bool is_header = rel.size() > 2 && rel.rfind(".h") == rel.size() - 2;
  const bool in_src = all_rules || rel.rfind("src/", 0) == 0;

  if (is_header) {
    CheckHeaderGuard(m, out);
    CheckUsingNamespace(m, out);
  } else {
    CheckIncludeFirst(m, out);
  }
  if (in_src) {
    CheckNakedNewDelete(m, out);
    if (!IoPrintAllowlisted(rel)) CheckIoPrint(m, out);
  }
  const bool clock_sanctioned = !all_rules &&
                                (rel.rfind("src/common/", 0) == 0 ||
                                 rel.rfind("src/obs/", 0) == 0);
  if (!clock_sanctioned) CheckRawClock(m, out);
  const bool thread_sanctioned = !all_rules && rel.rfind("src/exec/", 0) == 0;
  if (in_src && !thread_sanctioned) CheckRawThread(m, out);
  const bool store_sanctioned = !all_rules && ConcreteStoreSanctioned(rel);
  if (in_src && !store_sanctioned) CheckNoConcreteStore(m, out);
  const bool env_sanctioned = !all_rules && EnvReadSanctioned(rel);
  if (!env_sanctioned) CheckNoEnvKnob(m, out);
  const bool in_sparql = all_rules || rel.rfind("src/sparql/", 0) == 0;
  if (in_sparql) CheckNoRowLoopInBatchOps(m, out);
  CheckUncheckedResult(m, out);
  if (in_src) CheckGuardedBy(m, out);
  CheckLayering(m, out);  // path-scoped by construction (src/<module>/)
}

/// Collects `// LINT-EXPECT: rule-a, rule-b` annotations from raw source.
std::set<std::pair<std::string, std::string>> CollectExpectations(
    const FileModel& m) {
  std::set<std::pair<std::string, std::string>> expected;
  for (const std::string& line : m.raw_lines) {
    size_t pos = line.find("LINT-EXPECT:");
    if (pos == std::string::npos) continue;
    std::string rest = line.substr(pos + 12);
    std::istringstream items(rest);
    std::string rule;
    while (std::getline(items, rule, ',')) {
      rule.erase(0, rule.find_first_not_of(" \t"));
      rule.erase(rule.find_last_not_of(" \t") + 1);
      if (!rule.empty()) expected.insert({m.rel, rule});
    }
  }
  return expected;
}

int Run(const Options& opts) {
  std::vector<std::pair<fs::path, std::string>> files;  // (abs, rel)
  std::error_code ec;
  std::vector<fs::path> roots;
  if (opts.dirs.empty()) {
    roots.push_back(opts.root);
  } else {
    for (const std::string& d : opts.dirs) roots.push_back(opts.root / d);
  }
  for (const fs::path& scan_root : roots) {
    if (!fs::exists(scan_root)) {
      std::cerr << "lodviz_lint: scan dir '" << scan_root.string()
                << "' does not exist\n";
      return 2;
    }
    fs::recursive_directory_iterator it(scan_root, ec), end;
    for (; it != end; it.increment(ec)) {
      if (it->is_directory() &&
          ShouldSkipDir(it->path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      files.push_back(
          {it->path(), fs::relative(it->path(), opts.root).string()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // Pass 1: build every file model.
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const auto& [abs, rel] : files) models.push_back(BuildModel(abs, rel));

  // Pass 2: per-file rules, then the cross-file acquisition graph.
  std::vector<Violation> violations;
  std::vector<LockEdge> lock_edges;
  std::set<std::pair<std::string, std::string>> expected;
  for (const FileModel& m : models) {
    LintFile(m, opts.expect_mode, &violations);
    const bool in_src = opts.expect_mode || m.rel.rfind("src/", 0) == 0;
    if (in_src) CollectLockEdges(m, &lock_edges);
    if (opts.expect_mode) expected.merge(CollectExpectations(m));
  }
  CheckLockOrder(lock_edges, &violations);

  // Apply LINT-ALLOW waivers.
  std::map<std::string, const FileModel*> by_rel;
  for (const FileModel& m : models) by_rel[m.rel] = &m;
  std::vector<Violation> kept;
  for (const Violation& v : violations) {
    auto it = by_rel.find(v.file);
    if (it != by_rel.end() && IsAllowed(*it->second, v.rule, v.line)) continue;
    kept.push_back(v);
  }
  violations.swap(kept);

  if (!opts.expect_mode) {
    for (const Violation& v : violations) {
      std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
                << v.message << "\n";
    }
    if (violations.empty()) {
      std::cout << "lodviz_lint: " << files.size() << " files clean\n";
      return 0;
    }
    std::cout << "lodviz_lint: " << violations.size() << " violation(s) in "
              << files.size() << " files\n";
    return 1;
  }

  // Expect mode: fired (file, rule) pairs must equal the annotated set.
  std::set<std::pair<std::string, std::string>> fired;
  for (const Violation& v : violations) fired.insert({v.file, v.rule});
  int failures = 0;
  for (const auto& [file, rule] : expected) {
    if (!fired.count({file, rule})) {
      std::cout << "MISSING: expected [" << rule << "] to fire in " << file
                << "\n";
      ++failures;
    }
  }
  for (const auto& [file, rule] : fired) {
    if (!expected.count({file, rule})) {
      std::cout << "UNEXPECTED: [" << rule << "] fired in " << file << "\n";
      ++failures;
    }
  }
  std::cout << "lodviz_lint --expect: " << expected.size() << " expected, "
            << fired.size() << " fired, " << failures << " mismatch(es)\n";
  return failures ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Built-in lexer + structure self-tests (lodviz_lint --self-test)
// ---------------------------------------------------------------------------

int g_checks = 0;
int g_failures = 0;

void Expect(bool cond, const std::string& what) {
  ++g_checks;
  if (!cond) {
    ++g_failures;
    std::cout << "SELF-TEST FAIL: " << what << "\n";
  }
}

/// Tokenizes `src` after stripping and returns the token texts.
std::vector<std::string> TokenTexts(const std::string& src) {
  std::vector<std::string> texts;
  for (const Token& t : Tokenize(StripCommentsAndStrings(src))) {
    texts.push_back(t.text);
  }
  return texts;
}

bool Contains(const std::vector<std::string>& toks, const std::string& t) {
  return std::find(toks.begin(), toks.end(), t) != toks.end();
}

FileModel ModelOf(const std::string& src, const std::string& rel) {
  FileModel m;
  m.rel = rel;
  m.source = src;
  m.stripped = StripCommentsAndStrings(src);
  m.raw_lines = SplitLines(src);
  m.stripped_lines = SplitLines(m.stripped);
  m.tokens = Tokenize(m.stripped);
  BuildStructure(&m);
  CollectIncludes(&m);
  CollectAllows(&m);
  return m;
}

int RunSelfTest() {
  // --- Lexer: comments ---
  {
    auto t = TokenTexts("int a; // delete everything\nint b; /* new */ int c;");
    Expect(Contains(t, "a") && Contains(t, "b") && Contains(t, "c"),
           "code around comments survives");
    Expect(!Contains(t, "delete") && !Contains(t, "new"),
           "keywords inside comments are stripped");
  }
  {
    // Backslash-newline splices the next line into the // comment.
    auto t = TokenTexts("// still a comment \\\ndelete p;\nint live;");
    Expect(!Contains(t, "delete"), "spliced line comment hides second line");
    Expect(Contains(t, "live"), "line after spliced comment is code");
  }
  // --- Lexer: strings, prefixes, raw strings ---
  {
    auto t = TokenTexts("auto s = \"new delete printf\"; auto c = 'x';");
    Expect(!Contains(t, "printf"), "contents of plain strings are stripped");
  }
  {
    auto t = TokenTexts("auto s = u8\"printf\"; auto w = L'\\''; int ok;");
    Expect(!Contains(t, "printf"), "u8 string prefix recognized");
    Expect(Contains(t, "ok"), "escaped quote in prefixed char literal");
  }
  {
    auto t = TokenTexts(
        "auto r = R\"lint(delete new cout)lint\"; int after;");
    Expect(!Contains(t, "cout") && Contains(t, "after"),
           "raw string with custom delimiter stripped exactly");
  }
  {
    auto t = TokenTexts("auto r = LR\"(printf)\"; int tail;");
    Expect(!Contains(t, "printf") && Contains(t, "tail"),
           "raw string with encoding prefix stripped");
  }
  // --- Lexer: digit separators ---
  {
    // Three separators (odd count): a naive char-literal scan would swallow
    // the rest of the file from the last quote; the following `delete` and
    // `printf` must stay visible.
    auto t = TokenTexts(
        "uint64_t ns = 1'000'000'000;\ndelete p;\nstd::printf(\"x\");");
    Expect(Contains(t, "delete"),
           "digit separators do not open char literals (delete visible)");
    Expect(Contains(t, "printf"),
           "digit separators do not open char literals (printf visible)");
  }
  {
    auto t = TokenTexts("f(1'000, 'n'); delete q;");
    Expect(Contains(t, "delete"),
           "separator followed by real char literal keeps code visible");
  }
  // --- Structure: namespaces, classes, nesting ---
  {
    FileModel m = ModelOf(
        "namespace lodviz::storage {\n"
        "class Pool {\n"
        " public:\n"
        "  void Fetch(int id);\n"
        " private:\n"
        "  struct Shard {\n"
        "    mutable Mutex mu;\n"
        "    int tick GUARDED_BY(mu) = 0;\n"
        "  };\n"
        "  Mutex big_mu_;\n"
        "  std::map<int, int> table_ LODVIZ_GUARDED_BY(big_mu_);\n"
        "  std::atomic<int> pins_{0};\n"
        "  const int capacity_ = 8;\n"
        "  static constexpr int kBatch = 64;\n"
        "  int stray_;\n"
        "};\n"
        "}  // namespace\n",
        "src/storage/pool.h");
    Expect(m.classes.size() == 2, "two classes found (outer + nested)");
    const ClassInfo* pool = nullptr;
    const ClassInfo* shard = nullptr;
    for (const ClassInfo& c : m.classes) {
      if (c.qname == "storage::Pool") pool = &c;
      if (c.qname == "storage::Pool::Shard") shard = &c;
    }
    Expect(pool != nullptr, "outer class qualified name");
    Expect(shard != nullptr, "nested class qualified name");
    if (shard != nullptr) {
      Expect(shard->OwnsLock(), "nested class owns its mutex");
      bool tick_guarded = false;
      for (const MemberDecl& mem : shard->members) {
        if (mem.name == "tick") tick_guarded = mem.has_guard_annotation;
      }
      Expect(tick_guarded, "GUARDED_BY detected on nested member");
    }
    if (pool != nullptr) {
      std::map<std::string, const MemberDecl*> by_name;
      for (const MemberDecl& mem : pool->members) by_name[mem.name] = &mem;
      Expect(by_name.count("big_mu_") && by_name["big_mu_"]->is_lockable,
             "Mutex member detected as lockable");
      Expect(by_name.count("table_") &&
                 by_name["table_"]->has_guard_annotation,
             "LODVIZ_GUARDED_BY detected after template type");
      Expect(by_name.count("pins_") && by_name["pins_"]->is_threadsafe_type,
             "std::atomic member exempt (thread-safe type)");
      Expect(by_name.count("capacity_") && by_name["capacity_"]->is_const,
             "const member detected");
      Expect(by_name.count("kBatch") && by_name["kBatch"]->is_static,
             "static constexpr member detected");
      Expect(by_name.count("stray_") &&
                 !by_name["stray_"]->has_guard_annotation &&
                 !by_name["stray_"]->is_function,
             "unannotated data member classified as data");
      Expect(by_name.count("Fetch") == 0, "methods not recorded as data");
    }
  }
  {
    // Brace initializers, function bodies, and preprocessor lines must not
    // derail member collection.
    FileModel m = ModelOf(
        "#define HALF_OPEN {\n"
        "namespace lodviz {\n"
        "class Pool {\n"
        "  int Size() const { return n_; }\n"
        "  std::mutex mu_;\n"
        "  std::vector<int> rows_ = {1, 2, 3};\n"
        "  std::function<int()> fn_;\n"
        "  uint8_t buf_[16];\n"
        "  int n_ = 0;\n"
        "};\n"
        "}\n",
        "src/exec/pool.h");
    Expect(m.classes.size() == 1, "macro with unbalanced brace ignored");
    if (m.classes.size() == 1) {
      const ClassInfo& c = m.classes[0];
      Expect(c.qname == "Pool", "lodviz:: outer namespace dropped");
      Expect(c.OwnsLock(), "std::mutex member detected");
      std::map<std::string, const MemberDecl*> by_name;
      for (const MemberDecl& mem : c.members) by_name[mem.name] = &mem;
      Expect(by_name.count("rows_") > 0, "brace-initialized member found");
      Expect(by_name.count("fn_") > 0 && !by_name["fn_"]->is_function,
             "std::function member is data, not a method");
      Expect(by_name.count("buf_") > 0, "array member name before extent");
    }
  }
  // --- Lock-order graph ---
  {
    FileModel a = ModelOf(
        "namespace lodviz::exec {\n"
        "class Pool {\n"
        "  Mutex mu_ LODVIZ_ACQUIRED_BEFORE(obs::Registry::mu_);\n"
        "  int queue_ LODVIZ_GUARDED_BY(mu_);\n"
        "};\n"
        "}\n",
        "src/exec/pool.h");
    FileModel b = ModelOf(
        "namespace lodviz::obs {\n"
        "class Registry {\n"
        "  Mutex mu_ LODVIZ_ACQUIRED_BEFORE(exec::Pool::mu_);\n"
        "  int map_ LODVIZ_GUARDED_BY(mu_);\n"
        "};\n"
        "}\n",
        "src/obs/registry.h");
    std::vector<LockEdge> edges;
    CollectLockEdges(a, &edges);
    CollectLockEdges(b, &edges);
    Expect(edges.size() == 2, "one edge per ACQUIRED_BEFORE");
    std::vector<Violation> v;
    CheckLockOrder(edges, &v);
    Expect(v.size() == 2, "two-node cycle reported on both edges");
    std::vector<LockEdge> acyclic = {edges[0]};
    v.clear();
    CheckLockOrder(acyclic, &v);
    Expect(v.empty(), "single edge is acyclic");
  }
  // --- ACQUIRED_AFTER direction ---
  {
    FileModel m = ModelOf(
        "namespace lodviz {\n"
        "class A { Mutex a_ LODVIZ_ACQUIRED_AFTER(B::b_); int x_ "
        "LODVIZ_GUARDED_BY(a_); };\n"
        "}\n",
        "src/common/a.h");
    std::vector<LockEdge> edges;
    CollectLockEdges(m, &edges);
    Expect(edges.size() == 1 && edges[0].from == "B::b_" &&
               edges[0].to == "A::a_",
           "ACQUIRED_AFTER reverses the edge");
  }
  // --- LINT-ALLOW ---
  {
    FileModel m = ModelOf(
        "namespace lodviz {\n"
        "class C {\n"
        "  Mutex mu_;\n"
        "  // LINT-ALLOW(concurrency.guarded_by): set once in the ctor\n"
        "  int immutable_after_ctor_;\n"
        "};\n"
        "}\n",
        "src/common/c.h");
    std::vector<Violation> v;
    CheckGuardedBy(m, &v);
    Expect(v.empty(), "LINT-ALLOW waives guarded_by on the next line");
  }
  {
    FileModel m = ModelOf(
        "namespace lodviz {\n"
        "class C { Mutex mu_; int unguarded_; };\n"
        "}\n",
        "src/common/c.h");
    std::vector<Violation> v;
    CheckGuardedBy(m, &v);
    Expect(v.size() == 1 && v[0].rule == "concurrency.guarded_by",
           "missing GUARDED_BY fires");
  }
  // --- sparql.no_row_loop_in_batch_ops ---
  {
    FileModel m = ModelOf(
        "namespace lodviz::sparql {\n"
        "void Executor::EvalBgpBatches(const Plan& p) {\n"
        "  for (size_t i = 0; i < p.n; ++i) {\n"
        "    source_->Scan(pat, cb);\n"
        "  }\n"
        "}\n"
        "}\n",
        "src/sparql/executor.cc");
    std::vector<Violation> v;
    CheckNoRowLoopInBatchOps(m, &v);
    Expect(v.size() == 1 && v[0].rule == "sparql.no_row_loop_in_batch_ops",
           "Scan inside a for loop in a Batch function fires");
  }
  {
    // A lambda body counts as a loop body (ForEachRow-style callbacks).
    FileModel m = ModelOf(
        "namespace lodviz::sparql {\n"
        "void FilterBatches(View& view) {\n"
        "  view.ForEachRow(0, view.total(), [&](const B& b, uint32_t r) {\n"
        "    src.Scan(pat, cb);\n"
        "  });\n"
        "}\n"
        "}\n",
        "src/sparql/executor.cc");
    std::vector<Violation> v;
    CheckNoRowLoopInBatchOps(m, &v);
    Expect(v.size() == 1,
           "Scan inside a per-row lambda in a Batch function fires");
  }
  {
    // Batch-level (not per-row) Scan and loops in functions without
    // "Batch" in the name stay allowed.
    FileModel m = ModelOf(
        "namespace lodviz::sparql {\n"
        "void Executor::EvalBgpBatches(const Plan& p) {\n"
        "  source_->Scan(pat, cb);\n"  // once per step, no loop: fine
        "}\n"
        "void Executor::ProbeEachRow(const Plan& p) {\n"
        "  for (size_t i = 0; i < p.n; ++i) {\n"
        "    source_->Scan(pat, cb);\n"  // not a Batch function: out of scope
        "  }\n"
        "}\n"
        "}\n",
        "src/sparql/executor.cc");
    std::vector<Violation> v;
    CheckNoRowLoopInBatchOps(m, &v);
    Expect(v.empty(),
           "Scan outside loops / outside Batch functions does not fire");
  }
  // --- sparql.no_concrete_store scoping ---
  {
    // Fires in every src/ module but the store owners, and never outside
    // src/ (benches and tests build stores to feed the modules).
    const std::string text =
        "namespace lodviz {\nvoid F(const rdf::TripleStore& s);\n}\n";
    for (const char* rel : {"src/sparql/a.cc", "src/explore/a.cc",
                            "src/hier/a.cc", "src/viz/a.cc"}) {
      std::vector<Violation> v;
      LintFile(ModelOf(text, rel), /*all_rules=*/false, &v);
      Expect(v.size() == 1 && v[0].rule == "sparql.no_concrete_store",
             std::string("concrete store fires in ") + rel);
    }
    for (const char* rel : {"src/rdf/a.cc", "src/storage/a.cc",
                            "src/core/a.cc", "src/workload/a.cc",
                            "bench/a.cc", "tests/a.cc"}) {
      std::vector<Violation> v;
      LintFile(ModelOf(text, rel), /*all_rules=*/false, &v);
      Expect(v.empty(), std::string("concrete store allowed in ") + rel);
    }
  }
  // --- config.no_env_knob scoping ---
  {
    // Fires wherever the lint runs (src, bench, tests, tools) except the
    // two sanctioned readers; a name in a comment or string is no read.
    const std::string text =
        "#include <cstdlib>\nnamespace lodviz {\n"
        "const char* A() { return std::getenv(\"X\"); }\n"
        "const char* B() { return secure_getenv(\"Y\"); }\n}\n";
    for (const char* rel : {"src/serve/a.cc", "src/exec/thread_pool.cc",
                            "bench/e1.cc", "tests/a_test.cc", "tools/a.cc"}) {
      std::vector<Violation> v;
      LintFile(ModelOf(text, rel), /*all_rules=*/false, &v);
      size_t fired = 0;
      for (const Violation& x : v) fired += x.rule == "config.no_env_knob";
      Expect(fired == 2, std::string("env read fires in ") + rel);
    }
    for (const char* rel : {"src/exec/parallel.cc", "bench/bench_util.h"}) {
      std::vector<Violation> v;
      CheckNoEnvKnob(ModelOf(text, rel), &v);
      Expect(v.size() == 2, std::string("CheckNoEnvKnob sees ") + rel);
      v.clear();
      LintFile(ModelOf(text, rel), /*all_rules=*/false, &v);
      bool fired = false;
      for (const Violation& x : v) fired |= x.rule == "config.no_env_knob";
      Expect(!fired, std::string("env read allowed in ") + rel);
    }
    std::vector<Violation> v;
    CheckNoEnvKnob(ModelOf("// getenv(\"X\")\nconst char* s = \"getenv\";\n",
                           "src/serve/a.cc"),
                   &v);
    Expect(v.empty(), "getenv in a comment or string does not fire");
  }
  // --- Layering ---
  {
    FileModel m = ModelOf("#include \"core/engine.h\"\nint x;\n",
                          "src/sparql/bad.cc");
    std::vector<Violation> v;
    CheckLayering(m, &v);
    Expect(v.size() == 1 && v[0].rule == "arch.layering",
           "sparql including core fires layering");
    FileModel ok = ModelOf("#include \"graph/graph.h\"\nint x;\n",
                           "src/viz/ok.cc");
    v.clear();
    CheckLayering(ok, &v);
    Expect(v.empty(), "viz including graph is allowed");
  }

  std::cout << "lodviz_lint --self-test: " << g_checks << " checks, "
            << g_failures << " failure(s)\n";
  return g_failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.root = fs::current_path();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opts.root = fs::path(argv[++i]);
    } else if (arg == "--expect") {
      opts.expect_mode = true;
    } else if (arg == "--self-test") {
      return RunSelfTest();
    } else if (arg == "--help") {
      std::cout << "usage: lodviz_lint [--expect|--self-test] --root <dir> "
                   "[dirs...]\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "lodviz_lint: unknown option '" << arg << "'\n";
      return 2;
    } else {
      opts.dirs.push_back(arg);
    }
  }
  if (!fs::is_directory(opts.root)) {
    std::cerr << "lodviz_lint: --root '" << opts.root.string()
              << "' is not a directory\n";
    return 2;
  }
  if (!opts.expect_mode && opts.dirs.empty()) {
    opts.dirs = {"src", "bench", "tests", "tools"};
  }
  return Run(opts);
}
