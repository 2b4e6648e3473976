// Fixture: suppressions naming an id that is not a rule are findings.
// pet-lint: allow-file(no-such-rule): a misspelled or deleted rule id
#include <cstdlib>

namespace pet::sim {

int stale() {
  // pet-lint: allow(hot-path-alloc, banned-api): one dead id, one live one
  return std::rand();
}

}  // namespace pet::sim
