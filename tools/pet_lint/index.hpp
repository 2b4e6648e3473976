#pragma once
// Pass-1 project model, part 2: the declarations lock-discipline reads.
//
// A recursive-descent scan over the token stream that records class/struct/
// enum definitions and data members (with their PET_GUARDED_BY /
// PET_THREAD_CONFINED / PET_READ_SHARED annotations, const-ness, and whether
// the declared type is inherently synchronized — atomics, mutexes,
// condition variables).
//
// This is a token scanner, not a compiler front end: it tracks namespace /
// class / brace nesting and skips function bodies and template parameter
// lists, which is enough to answer "which fields of class C are annotated
// how". Forward declarations are not recorded.

#include <cstdint>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace pet::lint {

enum class DeclKind : std::uint8_t {
  kClass,  // class/struct/enum definition
  kField,  // data member (owner = enclosing class) or namespace-scope var
};

enum class SyncNote : std::uint8_t {
  kNone,            // unannotated
  kGuardedBy,       // PET_GUARDED_BY(mu)
  kThreadConfined,  // PET_THREAD_CONFINED(who)
  kReadShared,      // PET_READ_SHARED
};

struct Decl {
  std::string name;
  DeclKind kind = DeclKind::kClass;
  std::string path;  // repo-relative defining file
  std::int32_t line = 0;
  std::string owner;  // enclosing class chain ("A::B"); empty at namespace
                      // scope
  SyncNote note = SyncNote::kNone;
  std::string note_arg;  // mutex name for kGuardedBy, owner for confined
  bool immutable = false;  // const/constexpr declaration
  bool sync_type = false;  // atomic/mutex/cv/... — inherently synchronized
};

struct FileDecls {
  std::vector<Decl> decls;
  bool spawns_threads = false;  // names std::thread/std::jthread/std::async
};

/// Scan one file's tokens into its declaration list.
[[nodiscard]] FileDecls scan_decls(const std::string& relpath,
                                   const std::vector<Token>& toks);

}  // namespace pet::lint
