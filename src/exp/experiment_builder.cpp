#include "exp/experiment_builder.hpp"

#include <stdexcept>
#include <string>

#include "exp/replica_runner.hpp"

namespace pet::exp {

namespace {
[[noreturn]] void fail(const std::string& field, const std::string& why) {
  throw std::invalid_argument("ExperimentBuilder: " + field + " " + why);
}
}  // namespace

void ExperimentBuilder::validate() const {
  if (replicas_ < 1) fail("replicas", "must be >= 1");
  if (threads_ < 0) fail("threads", "must be >= 0 (0 = hardware)");
  if (replicas_ > 1 && cfg_.scheme != Scheme::kPet &&
      cfg_.scheme != Scheme::kPetAblation) {
    fail("replicas", "> 1 requires a PET scheme (merged IPPO update)");
  }
}

ScenarioConfig ExperimentBuilder::finalized() const {
  ScenarioConfig cfg = cfg_;
  if (tuned_dcqcn_) cfg.tune_dcqcn_for_rate();
  return cfg;
}

std::unique_ptr<Experiment> ExperimentBuilder::build() const {
  validate();
  return std::make_unique<Experiment>(finalized());
}

ReplicaRunner ExperimentBuilder::build_runner() const {
  validate();
  ReplicaRunnerConfig rc;
  rc.replicas = replicas_;
  rc.threads = threads_;
  return ReplicaRunner(finalized(), rc);
}

}  // namespace pet::exp
