#include "exp/flags.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace pet::exp {

std::string quote(std::string_view text) {
  std::string out = "\"";
  out += text;
  out += '"';
  return out;
}

std::optional<std::vector<std::string_view>> split_flag_list(
    std::string_view text) {
  std::vector<std::string_view> parts;
  for (;;) {
    const std::size_t comma = text.find(',');
    const std::string_view part = text.substr(0, comma);
    if (part.empty()) return std::nullopt;
    parts.push_back(part);
    if (comma == std::string_view::npos) return parts;
    text.remove_prefix(comma + 1);
  }
}

FlagSet::Flag FlagSet::make_flag(std::string_view spec, std::string help) {
  Flag f;
  const std::size_t eq = spec.find('=');
  f.name = spec.substr(0, eq);
  if (eq != std::string_view::npos) f.metavar = spec.substr(eq + 1);
  f.help = std::move(help);
  return f;
}

FlagSet& FlagSet::add(Flag flag) {
  const auto fail = [&flag](const char* why) {
    throw std::logic_error("FlagSet: " + flag.name + " " + why);
  };
  if (flag.name == "--help" || flag.name == "-h") fail("is built in");
  if (flag.takes_value && !flag.positional() && flag.metavar.empty()) {
    fail("needs a metavariable (--name=META)");
  }
  for (const Flag& f : flags_) {
    if (f.name == flag.name) fail("is registered twice");
  }
  flags_.push_back(std::move(flag));
  return *this;
}

FlagSet& FlagSet::toggle(std::string_view name, bool* field, bool set_to,
                         std::string_view help) {
  Flag f = make_flag(name, std::string(help));
  f.takes_value = false;
  f.set = [field, set_to](std::string_view /*text*/, bool /*first*/) {
    *field = set_to;
    return std::string();
  };
  return add(std::move(f));
}

FlagSet::Outcome FlagSet::parse(int argc, const char* const* argv) const {
  const auto fail = [this](const std::string& error) {
    return Outcome{2, error + "\n" + usage()};
  };
  std::vector<bool> seen(flags_.size(), false);
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return {0, usage()};
    const bool positional = arg.size() < 2 || arg.front() != '-';
    const std::size_t eq = positional ? arg.npos : arg.find('=');
    const auto matches = [&](const Flag& f) {
      return positional ? f.positional() : f.name == arg.substr(0, eq);
    };
    std::size_t k = positional ? next_positional : 0;
    while (k < flags_.size() && !matches(flags_[k])) ++k;
    if (k == flags_.size()) {
      return fail(std::string(positional ? "unexpected argument: "
                                         : "unknown option: ")
                      .append(arg));
    }
    const Flag& f = flags_[k];
    if (positional) next_positional = k + 1;
    if (!positional && f.takes_value != (eq != arg.npos)) {
      return fail(f.takes_value ? f.name + ": needs a value (" + f.name + "=" +
                                      f.metavar + ")"
                                : f.name + ": takes no value");
    }
    const std::string_view text = positional        ? arg
                                  : eq == arg.npos ? std::string_view()
                                                   : arg.substr(eq + 1);
    const std::string error = f.set(text, !seen[k]);
    seen[k] = true;
    if (!error.empty()) return fail(f.name + ": " + error);
  }
  return {};
}

std::string FlagSet::usage() const {
  std::string out = "usage: " + program_;
  for (const Flag& f : flags_) {
    if (f.positional()) out += " [" + f.name + "]";
  }
  const bool options = std::any_of(
      flags_.begin(), flags_.end(),
      [](const Flag& f) { return !f.positional(); });
  out += options ? " [options]\n" : "\n";
  constexpr std::size_t kColumn = 24;
  for (const Flag& f : flags_) {
    std::string left = "  " + f.name;
    if (!f.positional() && f.takes_value) left += "=" + f.metavar;
    left += left.size() < kColumn ? std::string(kColumn - left.size(), ' ')
                                  : "\n" + std::string(kColumn, ' ');
    out += left + f.help;
    if (!f.fallback.empty()) out += " (default " + f.fallback + ")";
    out += '\n';
  }
  return out;
}

// --- flags both CLIs share ---------------------------------------------------

void ScenarioFlags::add_to(FlagSet& flags) {
  flags.value("--spines=N", &spines, "spine switches (leaf-spine, inter-dc)")
      .value("--leaves=N", &leaves, "leaf switches (leaf-spine, inter-dc)")
      .value("--hosts-per-leaf=N", &hosts_per_leaf,
             "hosts per leaf (leaf-spine, inter-dc)")
      .value("--k=N", &fat_tree_k, "fat-tree pods")
      .value("--hosts-per-edge=N", &hosts_per_edge,
             "hosts per fat-tree edge switch; 0 = k/2")
      .value("--border-links=N", &border_links, "inter-dc WAN links")
      .value("--wan-delay-us=N", &wan_delay_us,
             "inter-dc one-way WAN delay in us")
      .value("--pretrain-ms=N", &pretrain_ms,
             "simulated ms before the measurement window")
      .value("--measure-ms=N", &measure_ms, "simulated measurement window")
      .choice("--infer", &infer, kInferNames,
              "PET serving: per-agent policies (direct), or one shared "
              "policy served at fp64|fp32|int8")
      .toggle("--no-incast", &incast, false, "disable the incast generator")
      .value("--train-episodes=N", &train_episodes,
             "ReplicaRunner training episodes (PET schemes)")
      .value("--replicas=N", &replicas, "replicas per training episode")
      .value("--checkpoint-every=N", &checkpoint_every,
             "checkpoint cadence in episodes")
      .toggle("--resume", &resume, true,
              "continue from what an interrupted run left on disk");
}

net::TopologySpec ScenarioFlags::make_topology(
    net::TopologySpec::Kind kind) const {
  net::LeafSpineConfig ls;
  ls.num_spines = spines;
  ls.num_leaves = leaves;
  ls.hosts_per_leaf = hosts_per_leaf;
  if (kind == net::TopologySpec::Kind::kLeafSpine) return ls;
  if (kind == net::TopologySpec::Kind::kFatTree) {
    net::FatTreeSpec ft;
    ft.k = fat_tree_k;
    ft.hosts_per_edge = hosts_per_edge;
    return ft;
  }
  net::InterDcSpec idc;
  idc.dc_a = ls;
  idc.dc_b = ls;
  idc.border_links = border_links;
  idc.wan_delay = sim::microseconds(wan_delay_us);
  return idc;
}

ExperimentBuilder ScenarioFlags::builder(net::TopologySpec::Kind kind) const {
  ExperimentBuilder b;
  b.topology(make_topology(kind))
      .flow_size_cap(8e6)
      .phases(sim::milliseconds(pretrain_ms), sim::milliseconds(measure_ms))
      .incast(incast)
      .infer(infer)
      .tuned_dcqcn();
  return b;
}

}  // namespace pet::exp
