// pet_lint self-tests: lexer corners, per-directory policies, each rule
// against a seeded fixture violation, and the suppression grammar. Fixture
// trees live under tests/lint_fixtures/<case>/ — each is a miniature repo
// root.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "driver.hpp"
#include "index.hpp"
#include "lexer.hpp"
#include "rules.hpp"

namespace lint = pet::lint;

namespace {

std::string fixture(const std::string& name) {
  return std::string(PET_LINT_FIXTURE_DIR) + "/" + name;
}

lint::RunResult run_fixture(const std::string& name) {
  lint::RunOptions opts;
  opts.root = fixture(name);
  return lint::run(opts);
}

std::size_t count_rule(const lint::RunResult& r, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

lint::FileReport analyze(const std::string& relpath, std::string_view src,
                         std::string_view sibling = {}) {
  return lint::analyze_source(relpath, src, lint::policy_for(relpath),
                              !sibling.empty(), sibling);
}

// --- lexer -------------------------------------------------------------------

TEST(LintLexer, CommentsAndStringsAreNotCode) {
  const auto toks = lint::tokenize(
      "// rand() in a comment\n"
      "/* std::rand() in a block */\n"
      "const char* s = \"rand()\";\n"
      "const char* r = R\"pet(std::rand())pet\";\n");
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kIdent) {
      EXPECT_NE(t.text, "rand") << t.line;
    }
  }
}

TEST(LintLexer, RawStringWithQuotesAndEscapes) {
  const auto toks = lint::tokenize("auto x = R\"(a \" \\ b)\" ; int y;");
  ASSERT_GE(toks.size(), 4u);
  const auto str = std::find_if(toks.begin(), toks.end(), [](const auto& t) {
    return t.kind == lint::TokKind::kString;
  });
  ASSERT_NE(str, toks.end());
  EXPECT_EQ(str->text, "a \" \\ b");
}

TEST(LintLexer, DirectiveIsOneTokenWithContinuation) {
  const auto toks = lint::tokenize("#define FOO(a) \\\n  ((a) + 1)\nint x;");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, lint::TokKind::kDirective);
  EXPECT_NE(toks[0].text.find("((a) + 1)"), std::string::npos);
}

TEST(LintLexer, LineCommentBackslashSpliceStaysComment) {
  // A backslash-newline inside a `//` comment splices the next physical
  // line into the comment (phase-2 splicing happens before comments are
  // recognized); the spliced text must never leak out as code tokens.
  const auto toks = lint::tokenize(
      "// spliced comment \\\n"
      "std::rand() would be a finding if this were code\n"
      "int x = 1;\n");
  for (const auto& t : toks) {
    if (t.kind == lint::TokKind::kIdent) {
      EXPECT_NE(t.text, "rand") << t.line;
    }
  }
  // The comment is one token and the following real code still lexes.
  const auto id = std::find_if(toks.begin(), toks.end(), [](const auto& t) {
    return t.kind == lint::TokKind::kIdent && t.text == "x";
  });
  ASSERT_NE(id, toks.end());
  EXPECT_EQ(id->line, 3);
}

TEST(LintRules, SplicedCommentDoesNotSwallowFollowingFinding) {
  const auto rep = analyze("src/sim/x.cpp",
                           "#include \"sim/x.hpp\"\n"
                           "// note that wraps via splice \\\n"
                           "and keeps going here\n"
                           "int seed() { return std::rand(); }\n");
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].rule, "banned-api");
  EXPECT_EQ(rep.findings[0].line, 4);
}

TEST(LintLexer, FusedPunctuation) {
  const auto toks = lint::tokenize("a->b; std::x;");
  const auto arrow = std::find_if(toks.begin(), toks.end(), [](const auto& t) {
    return t.kind == lint::TokKind::kPunct && t.text == "->";
  });
  const auto scope = std::find_if(toks.begin(), toks.end(), [](const auto& t) {
    return t.kind == lint::TokKind::kPunct && t.text == "::";
  });
  EXPECT_NE(arrow, toks.end());
  EXPECT_NE(scope, toks.end());
}

// --- policies ----------------------------------------------------------------

TEST(LintPolicy, StrictInDeterministicSubsystems) {
  for (const char* p : {"src/sim/scheduler.cpp", "src/net/switch.cpp",
                        "src/rl/ppo.hpp", "src/core/ncm.cpp",
                        "src/exp/experiment.cpp", "src/transport/dcqcn.cpp"}) {
    const lint::Policy pol = lint::policy_for(p);
    EXPECT_TRUE(pol.banned_det) << p;
    EXPECT_TRUE(pol.nondet_iteration) << p;
    EXPECT_TRUE(pol.unaudited_ecn) << p;
  }
}

TEST(LintPolicy, LogMayPrintTestkitMayGetenv) {
  EXPECT_FALSE(lint::policy_for("src/sim/log.cpp").banned_io);
  EXPECT_TRUE(lint::policy_for("src/sim/log.cpp").banned_det);
  EXPECT_FALSE(lint::policy_for("src/testkit/kit.cpp").banned_getenv);
}

TEST(LintPolicy, ToolsAndBenchRelaxed) {
  for (const char* p : {"tools/pet_lint/main.cpp", "bench/common.hpp",
                        "examples/quickstart.cpp"}) {
    const lint::Policy pol = lint::policy_for(p);
    EXPECT_FALSE(pol.banned_det) << p;
    EXPECT_TRUE(pol.header_hygiene) << p;
    EXPECT_TRUE(pol.nodiscard_chain) << p;
  }
}

// --- rules on fixture trees --------------------------------------------------

TEST(LintFixtures, BannedApiCatchesEveryFlavor) {
  const auto r = run_fixture("banned_api");
  EXPECT_FALSE(r.io_error) << r.error;
  // srand, rand, steady_clock, random_device, time(, getenv, printf, plus
  // the two torn writes (std::ofstream, fopen "wb") — the "rb" read is fine.
  EXPECT_GE(count_rule(r, "banned-api"), 9u);
  EXPECT_EQ(r.findings.size(), count_rule(r, "banned-api"));
}

TEST(LintFixtures, SuppressionSilencesOnlyAnnotatedSites) {
  const auto r = run_fixture("suppression");
  EXPECT_FALSE(r.io_error) << r.error;
  // Single-line allow, multi-line justification, and two allow-file hits
  // are silenced; the one unjustified call survives.
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "banned-api");
  EXPECT_NE(r.findings[0].line_text.find("unjustified"), std::string::npos);
  EXPECT_EQ(r.suppressed, 4u);
}

TEST(LintFixtures, NondetIterationFlagsDigestLoopNotSortedView) {
  const auto r = run_fixture("nondet");
  EXPECT_FALSE(r.io_error) << r.error;
  ASSERT_EQ(count_rule(r, "nondet-iteration"), 1u);
  const auto f = std::find_if(r.findings.begin(), r.findings.end(),
                              [](const lint::Finding& x) {
                                return x.rule == "nondet-iteration";
                              });
  // The digest loop is the hit; the sorted_keys eviction loop is exempt.
  EXPECT_NE(f->message.find("counts_"), std::string::npos);
  EXPECT_NE(f->message.find("digest"), std::string::npos);
}

TEST(LintFixtures, UnauditedEcnOutsideAllowlist) {
  const auto r = run_fixture("ecn");
  EXPECT_FALSE(r.io_error) << r.error;
  // Both the rogue declaration (a new unaudited entry point) and the call
  // that bypasses install_ecn() are flagged.
  EXPECT_EQ(count_rule(r, "unaudited-ecn"), 2u);
}

TEST(LintFixtures, NodiscardChainDeclarationAndCallSite) {
  const auto r = run_fixture("nodiscard");
  EXPECT_FALSE(r.io_error) << r.error;
  ASSERT_EQ(count_rule(r, "nodiscard-chain"), 4u);
  bool saw_decl = false;
  bool saw_call = false;
  bool saw_ckpt_decl = false;
  bool saw_ckpt_call = false;
  for (const auto& f : r.findings) {
    saw_decl = saw_decl ||
               f.line_text.find("bool set_weights") != std::string::npos;
    saw_call = saw_call || f.line_text.find("m.load(path)") != std::string::npos;
    saw_ckpt_decl = saw_ckpt_decl ||
                    f.line_text.find("bool load_state") != std::string::npos;
    saw_ckpt_call =
        saw_ckpt_call ||
        f.line_text.find("m.load_checkpoint(path)") != std::string::npos;
  }
  EXPECT_TRUE(saw_decl);
  EXPECT_TRUE(saw_call);
  EXPECT_TRUE(saw_ckpt_decl);
  EXPECT_TRUE(saw_ckpt_call);
}

TEST(LintFixtures, HeaderHygieneMissingPragmaAndWrongFirstInclude) {
  const auto r = run_fixture("hygiene");
  EXPECT_FALSE(r.io_error) << r.error;
  EXPECT_EQ(count_rule(r, "header-hygiene"), 2u);
}

TEST(LintFixtures, CleanTreeHasZeroFindings) {
  const auto r = run_fixture("clean");
  EXPECT_FALSE(r.io_error) << r.error;
  EXPECT_TRUE(r.findings.empty());
  EXPECT_GE(r.files_scanned, 2u);
}

TEST(LintFixtures, UnknownRuleInSuppressionIsAFinding) {
  const auto r = run_fixture("unknown_rule");
  EXPECT_FALSE(r.io_error) << r.error;
  // allow-file(no-such-rule) and the dead id in allow(hot-path-alloc,
  // banned-api) are findings; the live banned-api id still suppresses.
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(count_rule(r, "unknown-rule"), 2u);
  EXPECT_NE(r.findings[0].message.find("'no-such-rule'"), std::string::npos);
  EXPECT_NE(r.findings[1].message.find("'hot-path-alloc'"), std::string::npos);
  EXPECT_EQ(r.suppressed, 1u);
}

// --- targeted rule regressions (inline sources) ------------------------------

TEST(LintRules, DeclarationIsNotADiscardedCall) {
  // `LoadResult load(const std::string&);` must not look like a bare call.
  const auto rep = analyze("src/sim/x.hpp",
                           "#pragma once\n"
                           "struct S { int load(const int& path); };\n");
  EXPECT_TRUE(rep.findings.empty());
}

TEST(LintRules, SiblingHeaderMembersAreVisible) {
  const auto rep = analyze(
      "src/exp/t.cpp",
      "#include \"exp/t.hpp\"\n"
      "void T::walk() { for (const auto& kv : table_) { use(kv); } }\n"
      "std::uint64_t T::digest() const { return 0; }\n",
      "#pragma once\n#include <unordered_map>\n"
      "struct T { std::unordered_map<int,int> table_; };\n");
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].rule, "nondet-iteration");
}

TEST(LintRules, MultiLineJustificationCoversNextCodeLine) {
  const auto rep = analyze("src/sim/x.cpp",
                           "#include \"sim/x.hpp\"\n"
                           "int f() {\n"
                           "  // pet-lint: allow(banned-api): first line of a\n"
                           "  // justification that wraps onto a second line\n"
                           "  return std::rand();\n"
                           "}\n");
  EXPECT_TRUE(rep.findings.empty());
  EXPECT_EQ(rep.suppressed, 1u);
}

TEST(LintRules, SuppressionDoesNotLeakPastItsStatement) {
  const auto rep = analyze("src/sim/x.cpp",
                           "#include \"sim/x.hpp\"\n"
                           "int f() {\n"
                           "  // pet-lint: allow(banned-api): only this one\n"
                           "  int a = std::rand();\n"
                           "  int b = std::rand();\n"
                           "  return a + b;\n"
                           "}\n");
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].line, 5);
}

TEST(LintRules, NonAtomicWriteFlaggedOnlyInSrc) {
  const char* kTorn =
      "#include <fstream>\n"
      "#include <string>\n"
      "namespace pet::exp {\n"
      "void dump(const std::string& p) { std::ofstream out(p); }\n"
      "}  // namespace pet::exp\n";
  const auto strict = analyze("src/exp/dump.cpp", kTorn);
  ASSERT_EQ(strict.findings.size(), 1u);
  EXPECT_EQ(strict.findings[0].rule, "banned-api");
  EXPECT_NE(strict.findings[0].message.find("atomic_write_file"),
            std::string::npos);
  // tools/bench/examples may write files however they like.
  EXPECT_TRUE(analyze("tools/plot/dump.cpp", kTorn).findings.empty());
}

TEST(LintRules, AtomicWriterItselfIsExemptAndReadsAreFine) {
  const char* kWriter =
      "#include <cstdio>\n"
      "namespace pet::sim {\n"
      "void w(const char* p) { std::FILE* f = std::fopen(p, \"wb\"); "
      "std::fclose(f); }\n"
      "}  // namespace pet::sim\n";
  EXPECT_TRUE(analyze("src/sim/fs_atomic.cpp", kWriter).findings.empty());
  const char* kReader =
      "#include <cstdio>\n"
      "namespace pet::exp {\n"
      "void r(const char* p) { std::FILE* f = std::fopen(p, \"rb\"); "
      "std::fclose(f); }\n"
      "}  // namespace pet::exp\n";
  EXPECT_TRUE(analyze("src/exp/reader.cpp", kReader).findings.empty());
}

TEST(LintRules, DiscardedCheckpointLoadIsFlagged) {
  const auto rep = analyze(
      "src/exp/resume.cpp",
      "#include \"exp/resume.hpp\"\n"
      "namespace pet::exp {\n"
      "void resume(Runner& r, const std::string& p) {\n"
      "  r.load_checkpoint(p);\n"
      "}\n"
      "bool keep(Runner& r, const std::string& p) {\n"
      "  return r.load_checkpoint(p);\n"
      "}\n"
      "}  // namespace pet::exp\n");
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].rule, "nodiscard-chain");
  EXPECT_EQ(rep.findings[0].line, 4);
}

TEST(LintRules, SnapshotChainCallsMustBeConsumed) {
  const auto rep = analyze("src/rl/snapshot.cpp",
                           "#include \"rl/snapshot.hpp\"\n"
                           "namespace pet::rl {\n"
                           "bool quantize(const Weights& w);\n"
                           "void serve(Snapshot& s, const Snapshot& o) {\n"
                           "  s.quantize(w);\n"
                           "  s.install(o);\n"
                           "  if (!s.refresh(o)) return;\n"
                           "}\n"
                           "}  // namespace pet::rl\n");
  // The un-annotated declaration and the two dropped results; the consumed
  // refresh() is fine.
  ASSERT_EQ(rep.findings.size(), 3u);
  for (const auto& f : rep.findings) EXPECT_EQ(f.rule, "nodiscard-chain");
  EXPECT_EQ(rep.findings[0].line, 3);
  EXPECT_EQ(rep.findings[1].line, 5);
  EXPECT_EQ(rep.findings[2].line, 6);
}

TEST(LintRules, AllRuleIdsStable) {
  const std::vector<std::string> expected = {
      "banned-api",      "nondet-iteration", "unaudited-ecn",
      "nodiscard-chain", "header-hygiene",   "layer-order",
      "orphan-header",   "lock-discipline"};
  EXPECT_EQ(lint::all_rule_ids(), expected);
}

// --- declaration scan --------------------------------------------------------

lint::FileDecls scan(const std::string& path, const char* src) {
  return lint::scan_decls(path, lint::tokenize(src));
}

const lint::Decl* find_decl(const lint::FileDecls& f, const std::string& name,
                            lint::DeclKind kind) {
  for (const auto& d : f.decls) {
    if (d.name == name && d.kind == kind) return &d;
  }
  return nullptr;
}

TEST(LintDeclIndex, NestedClassesCarryTheOwnerChain) {
  const auto f = scan("src/sim/outer.hpp",
                      "#pragma once\n"
                      "namespace pet::sim {\n"
                      "class Outer {\n"
                      " public:\n"
                      "  class Inner {\n"
                      "    int depth_ = 0;\n"
                      "  };\n"
                      "  void tick();\n"
                      " private:\n"
                      "  int beat_ = 0;\n"
                      "};\n"
                      "}  // namespace pet::sim\n");
  const auto* inner = find_decl(f, "Inner", lint::DeclKind::kClass);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->owner, "Outer");
  const auto* depth = find_decl(f, "depth_", lint::DeclKind::kField);
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->owner, "Outer::Inner");
  const auto* beat = find_decl(f, "beat_", lint::DeclKind::kField);
  ASSERT_NE(beat, nullptr);
  EXPECT_EQ(beat->owner, "Outer");
}

TEST(LintDeclIndex, TemplatesAndAnnotationsAndSyncTypes) {
  const auto f = scan(
      "src/sim/ring.hpp",
      "#pragma once\n"
      "#include <mutex>\n"
      "namespace pet::sim {\n"
      "template <typename T, int N>\n"
      "class Ring {\n"
      "  std::mutex mu_;\n"
      "  T slots_[N] PET_GUARDED_BY(mu_);\n"
      "  const int capacity_ = N;\n"
      "};\n"
      "}  // namespace pet::sim\n");
  const auto* ring = find_decl(f, "Ring", lint::DeclKind::kClass);
  ASSERT_NE(ring, nullptr);
  EXPECT_TRUE(ring->owner.empty());
  const auto* mu = find_decl(f, "mu_", lint::DeclKind::kField);
  ASSERT_NE(mu, nullptr);
  EXPECT_TRUE(mu->sync_type);
  const auto* slots = find_decl(f, "slots_", lint::DeclKind::kField);
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(slots->note, lint::SyncNote::kGuardedBy);
  EXPECT_EQ(slots->note_arg, "mu_");
  const auto* cap = find_decl(f, "capacity_", lint::DeclKind::kField);
  ASSERT_NE(cap, nullptr);
  EXPECT_TRUE(cap->immutable);
}

TEST(LintDeclIndex, ForwardDeclarationsNeverDefine) {
  const auto f = scan("src/sim/fwd.hpp",
                      "#pragma once\n"
                      "namespace pet::sim {\n"
                      "class Elsewhere;\n"
                      "}  // namespace pet::sim\n");
  EXPECT_EQ(find_decl(f, "Elsewhere", lint::DeclKind::kClass), nullptr);
}

// --- cross-TU rules on fixture trees -----------------------------------------

TEST(LintPolicy, CrossTuRulesActivateUnderSrcOnly) {
  for (const char* p : {"src/sim/log.cpp", "src/exp/sweep.cpp",
                        "src/rl/ppo.hpp"}) {
    const lint::Policy pol = lint::policy_for(p);
    EXPECT_TRUE(pol.layer_order) << p;
    EXPECT_TRUE(pol.orphan_header) << p;
    EXPECT_TRUE(pol.lock_discipline) << p;
  }
  for (const char* p : {"tests/test_sweep.cpp", "tools/pet_lint/main.cpp",
                        "bench/micro_sim.cpp", "examples/quickstart.cpp"}) {
    const lint::Policy pol = lint::policy_for(p);
    EXPECT_FALSE(pol.layer_order) << p;
    EXPECT_FALSE(pol.orphan_header) << p;
    EXPECT_FALSE(pol.lock_discipline) << p;
  }
}

TEST(LintProject, LayerOrderCatchesClimbAndCycleHonorsAllow) {
  const auto r = run_fixture("layer");
  EXPECT_FALSE(r.io_error) << r.error;
  // One climbing include (net -> exp) and one include cycle
  // (cycle_a <-> cycle_b); the annotated climb is suppressed.
  ASSERT_EQ(count_rule(r, "layer-order"), 2u);
  bool saw_climb = false;
  bool saw_cycle = false;
  for (const auto& f : r.findings) {
    if (f.rule != "layer-order") continue;
    saw_climb = saw_climb || (f.path == "src/net/climb.hpp" &&
                              f.message.find("climbs") != std::string::npos);
    saw_cycle = saw_cycle || (f.path == "src/sim/cycle_a.hpp" &&
                              f.message.find("cycle") != std::string::npos);
  }
  EXPECT_TRUE(saw_climb);
  EXPECT_TRUE(saw_cycle);
  EXPECT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintProject, OrphanHeaderIsFlagged) {
  const auto r = run_fixture("orphan");
  EXPECT_FALSE(r.io_error) << r.error;
  // orphan.hpp is included by nothing; api.hpp and widget.hpp are reached.
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "orphan-header");
  EXPECT_EQ(r.findings[0].path, "src/net/orphan.hpp");
}

TEST(LintProject, LockDisciplineUnlockedAccessAndUnannotatedField) {
  const auto r = run_fixture("lockdisc");
  EXPECT_FALSE(r.io_error) << r.error;
  // bad_bump touches a guarded field without the mutex; Pool spawns
  // threads around an unannotated mutable field. The locked accesses and
  // the justified unlocked read stay quiet.
  ASSERT_EQ(count_rule(r, "lock-discipline"), 2u);
  bool saw_unlocked = false;
  bool saw_unannotated = false;
  for (const auto& f : r.findings) {
    if (f.rule != "lock-discipline") continue;
    saw_unlocked = saw_unlocked ||
                   (f.path == "src/sim/counter.cpp" &&
                    f.message.find("value_") != std::string::npos &&
                    f.message.find("without holding") != std::string::npos);
    saw_unannotated =
        saw_unannotated ||
        (f.path == "src/sim/pool.hpp" &&
         f.message.find("pending_jobs_") != std::string::npos &&
         f.message.find("no sync annotation") != std::string::npos);
  }
  EXPECT_TRUE(saw_unlocked);
  EXPECT_TRUE(saw_unannotated);
  EXPECT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintProject, CrossTuPassInactiveWithoutLayerMap) {
  // The sortorder tree has undeclared src/ directories and orphan headers,
  // but no tools/pet_lint/layers.txt — the project pass must stay off.
  const auto r = run_fixture("sortorder");
  EXPECT_FALSE(r.io_error) << r.error;
  EXPECT_EQ(count_rule(r, "layer-order"), 0u);
  EXPECT_EQ(count_rule(r, "orphan-header"), 0u);
  EXPECT_EQ(count_rule(r, "lock-discipline"), 0u);
}

// --- deterministic ordering --------------------------------------------------

TEST(LintDriver, ByteLessOrdersUnsignedAndDiffersFromPathCollation) {
  EXPECT_TRUE(lint::byte_less("src/a-c/f.hpp", "src/a/f.hpp"));  // '-' < '/'
  EXPECT_TRUE(lint::byte_less("src/a/f.hpp", "src/ab/f.hpp"));   // '/' < 'b'
  EXPECT_FALSE(lint::byte_less("src/a/f.hpp", "src/a-c/f.hpp"));
  EXPECT_FALSE(lint::byte_less("src/a/f.hpp", "src/a/f.hpp"));
}

TEST(LintDriver, FindingsComeBackInByteWisePathOrder) {
  const auto r = run_fixture("sortorder");
  EXPECT_FALSE(r.io_error) << r.error;
  // Three headers missing #pragma once, one finding each, in byte order:
  // "a-c" sorts before "a/" (0x2d < 0x2f) which sorts before "ab".
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_EQ(r.findings[0].path, "src/a-c/f.hpp");
  EXPECT_EQ(r.findings[1].path, "src/a/f.hpp");
  EXPECT_EQ(r.findings[2].path, "src/ab/f.hpp");
}

}  // namespace
