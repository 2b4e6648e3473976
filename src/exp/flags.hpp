#pragma once
// FlagSet: the one checked command-line parser of the CLIs, the figure
// benches and the examples. Each flag is registered once with the field it
// fills and its help line; usage() is generated from the table, showing
// each field's value at registration as its default:
//
//   exp::FlagSet flags(argv[0]);
//   flags.value("--load=F", &opt.load, "fraction of host bandwidth")
//       .choice("--scheme", &opt.scheme, exp::kSchemeNames, "ECN scheme")
//       .toggle("--no-incast", &opt.incast, false, "disable the incast");
//
// A spec without leading dashes ("load") is a positional argument. Values
// convert over the whole string: "0.5x", "abc", "", an overflow or "-1"
// for an unsigned field fail naming the flag. std::vector fields take comma
// lists (the first use replaces the default, repeats append). parse()
// prints nothing: it returns the message and the exit code (0 for --help,
// 2 for bad usage) for the tool to emit. The set keeps pointers to the
// fields and to the choice vocabularies, so both must outlive parse().

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/experiment_builder.hpp"
#include "exp/scheme.hpp"
#include "net/topology_spec.hpp"
#include "rl/inference.hpp"
#include "workload/distributions.hpp"

namespace pet::exp {

/// One word of a choice flag's vocabulary.
template <class T>
struct Choice {
  std::string_view name;
  T value;
};

// The command-line vocabulary every tool shares, in help order.
inline constexpr std::array<Choice<Scheme>, 7> kSchemeNames{{
    {"secn1", Scheme::kSecn1}, {"secn2", Scheme::kSecn2},
    {"amt", Scheme::kAmt}, {"qaecn", Scheme::kQaecn}, {"acc", Scheme::kAcc},
    {"pet", Scheme::kPet}, {"pet-ablation", Scheme::kPetAblation}}};
inline constexpr std::array<Choice<workload::WorkloadKind>, 2> kWorkloadNames{
    {{"websearch", workload::WorkloadKind::kWebSearch},
     {"datamining", workload::WorkloadKind::kDataMining}}};
inline constexpr std::array<Choice<rl::InferMode>, 4> kInferNames{
    {{"direct", rl::InferMode::kDirect}, {"fp64", rl::InferMode::kFp64},
     {"fp32", rl::InferMode::kFp32}, {"int8", rl::InferMode::kInt8}}};
inline constexpr std::array<Choice<net::TopologySpec::Kind>, 3> kTopologyNames{
    {{"leaf-spine", net::TopologySpec::Kind::kLeafSpine},
     {"fat-tree", net::TopologySpec::Kind::kFatTree},
     {"inter-dc", net::TopologySpec::Kind::kInterDc}}};

template <class T>
inline constexpr bool kIsList = false;
template <class T>
inline constexpr bool kIsList<std::vector<T>> = true;

/// `text` in double quotes, for error messages.
[[nodiscard]] std::string quote(std::string_view text);
/// Splits a comma list; nullopt when the text or any element is empty.
[[nodiscard]] std::optional<std::vector<std::string_view>> split_flag_list(
    std::string_view text);

/// Whole-string conversion of one value; returns the error ("" = ok) and
/// leaves `out` alone on failure.
template <class T>
[[nodiscard]] std::string parse_flag_value(std::string_view text, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
    return {};
  } else {
    if (text.empty()) return "empty value";
    const char* end = text.data() + text.size();
    T v{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::result_out_of_range) {
      return quote(text) + " is out of range";
    }
    if (ec != std::errc() || ptr != end) {
      return quote(text) + " is not " +
             (std::is_floating_point_v<T> ? "a number"
              : std::is_unsigned_v<T>     ? "a non-negative integer"
                                          : "an integer");
    }
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(v)) return quote(text) + " is not a finite number";
    }
    *out = v;
    return {};
  }
}

/// The text usage() shows for a default.
template <class T>
[[nodiscard]] std::string show_flag_value(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    std::array<char, 32> buf{};
    return {buf.data(), std::to_chars(buf.begin(), buf.end(), v).ptr};
  }
}

class FlagSet {
 public:
  struct Outcome {
    std::optional<int> exit_code;  // set when the tool must not run
    std::string message;  // usage (--help), or the error line and usage
  };

  /// `program` heads the usage line (tools pass argv[0]).
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  /// "--load=F" spells the flag and its metavariable; "load" a positional.
  /// Fields: integers, double, std::string, or a std::vector of those.
  template <class T>
  FlagSet& value(std::string_view spec, T* field, std::string_view help) {
    return bind(
        spec, std::string(help), field,
        [](std::string_view text, auto* out) {
          return parse_flag_value(text, out);
        },
        [](const auto& v) { return show_flag_value(v); });
  }

  /// --name=WORD with WORD from `names`; a std::vector field takes a comma
  /// list of them.
  template <class F, class T, std::size_t N>
  FlagSet& choice(std::string_view name, F* field,
                  const std::array<Choice<T>, N>& names,
                  std::string_view help) {
    std::string words;
    for (const Choice<T>& c : names) {
      if (!words.empty()) words += '|';
      words += c.name;
    }
    const std::string spec =
        std::string(name) + (kIsList<F> ? "=LIST" : "=" + words);
    return bind(
        spec, kIsList<F> ? std::string(help) + ": comma list of " + words
                         : std::string(help),
        field,
        [&names, words](std::string_view text, T* out) -> std::string {
          for (const Choice<T>& c : names) {
            if (c.name == text) {
              *out = c.value;
              return {};
            }
          }
          return "unknown value " + quote(text) + " (" + words + ")";
        },
        [&names](const T& v) {
          for (const Choice<T>& c : names) {
            if (c.value == v) return std::string(c.name);
          }
          return std::string();
        });
  }

  /// --name with no value: stores `set_to` into `field`.
  FlagSet& toggle(std::string_view name, bool* field, bool set_to,
                  std::string_view help);

  [[nodiscard]] Outcome parse(int argc, const char* const* argv) const;
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string name;     // "--load", or the positional's name
    std::string metavar;  // "F", "LIST", "a|b"; empty for toggles
    std::string help;
    std::string fallback;  // default shown by usage(); empty = none
    bool takes_value = true;
    /// Converts one raw value into the field; returns the error ("" = ok).
    /// `first` is true on the flag's first use (lists drop their default).
    std::function<std::string(std::string_view, bool first)> set;

    [[nodiscard]] bool positional() const { return name.front() != '-'; }
  };

  template <class F, class Parse, class Show>
  FlagSet& bind(std::string_view spec, std::string help, F* field,
                Parse parse, Show show) {
    Flag f = make_flag(spec, std::move(help));
    if constexpr (kIsList<F>) {
      for (const auto& v : *field) {
        if (!f.fallback.empty()) f.fallback += ',';
        f.fallback += show(v);
      }
      f.set = [field, parse](std::string_view text, bool first) {
        const auto parts = split_flag_list(text);
        if (!parts) return "empty list element in " + quote(text);
        F values(parts->size());
        for (std::size_t i = 0; i < parts->size(); ++i) {
          std::string error = parse((*parts)[i], &values[i]);
          if (!error.empty()) return error;
        }
        if (first) field->clear();
        field->insert(field->end(), values.begin(), values.end());
        return std::string();
      };
    } else {
      f.fallback = show(*field);
      f.set = [field, parse](std::string_view text, bool /*first*/) {
        return parse(text, field);
      };
    }
    return add(std::move(f));
  }

  [[nodiscard]] static Flag make_flag(std::string_view spec, std::string help);
  /// Throws std::logic_error on a duplicate, a clash with --help or a
  /// value flag without a metavariable.
  FlagSet& add(Flag flag);

  std::string program_;
  std::vector<Flag> flags_;
};

/// The scenario and training flags pet_sim_cli and pet_sweep share. Set a
/// tool's defaults on the fields before add_to(): usage() shows them.
struct ScenarioFlags {
  // Fabric shape: leaf-spine reads spines/leaves/hosts_per_leaf, fat-tree
  // fat_tree_k/hosts_per_edge, and inter-dc joins two identical leaf-spine
  // DCs over border_links WAN links of wan_delay_us.
  std::int32_t spines = 2;
  std::int32_t leaves = 4;
  std::int32_t hosts_per_leaf = 8;
  std::int32_t fat_tree_k = 4;
  std::int32_t hosts_per_edge = 0;  // 0 = canonical k/2
  std::int32_t border_links = 1;
  std::int64_t wan_delay_us = 1000;
  std::int64_t pretrain_ms = 40;
  std::int64_t measure_ms = 40;
  rl::InferMode infer = rl::InferMode::kDirect;
  bool incast = true;
  // Training (PET schemes only).
  std::int32_t train_episodes = 0;
  std::int32_t replicas = 2;
  std::int32_t checkpoint_every = 1;
  bool resume = false;

  void add_to(FlagSet& flags);
  /// The `kind` fabric these shape flags describe.
  [[nodiscard]] net::TopologySpec make_topology(
      net::TopologySpec::Kind kind) const;
  /// Builder on the `kind` fabric with the shared flags applied (phases,
  /// incast, serving mode) plus the CLIs' 8 MB flow-size cap and
  /// rate-tuned DCQCN.
  [[nodiscard]] ExperimentBuilder builder(net::TopologySpec::Kind kind) const;
};

}  // namespace pet::exp
