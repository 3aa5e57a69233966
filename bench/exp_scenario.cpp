// exp_scenario — run any registered scenario by name: the one entry point
// the declarative scenario registry drives.
//
//   ./build/bench/exp_scenario --list
//   ./build/bench/exp_scenario <name> [--backend=sim|async] [--seed=N]
//       [--duration=SECONDS] [--train-duration=SECONDS]
//       [--controller=none|drnn|observed|elastic|drl|rate] [--set key=value ...]
//       [--golden=FILE]
//   ./build/bench/exp_scenario --all [--duration=SECONDS] [...]
//
// --set applies any override key from exp::override_keys() (fail closed:
// unknown keys and unparsable values exit 2); the dedicated flags are
// shorthands for the overrides of the same name. --all runs every
// registered scenario in name order with the same overrides — the CI
// smoke mode. --golden byte-compares the rendered sim table against FILE
// (set REPRO_UPDATE_GOLDEN=1 to [re]record); wall-clock columns are
// deliberately absent from the table, so sim runs compare stably.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "exp/scenario_spec.hpp"

using namespace repro;

namespace {

void usage(std::FILE* to) {
  std::string keys;
  for (const auto& k : exp::override_keys()) keys += (keys.empty() ? "" : "|") + k;
  std::fprintf(to,
               "usage: exp_scenario <name> [flags]   run one registered scenario\n"
               "       exp_scenario --list           list registered scenarios\n"
               "       exp_scenario --all [flags]    run every scenario (smoke mode)\n"
               "flags: --backend=sim|async --seed=N --duration=SECONDS\n"
               "       --train-duration=SECONDS --controller=none|drnn|observed|elastic|drl|rate\n"
               "       --set key=value (repeatable via comma: --set k1=v1,k2=v2)\n"
               "       --golden=FILE (REPRO_UPDATE_GOLDEN=1 records)\n"
               "override keys: %s\n",
               keys.c_str());
}

/// The shorthand flags plus every --set pair, as (key, value) overrides in
/// command-line order. Returns false (after a diagnostic) on a malformed
/// --set item.
bool gather_overrides(const common::Flags& flags,
                      std::vector<std::pair<std::string, std::string>>& out) {
  for (const char* key : {"backend", "seed", "duration", "train-duration", "controller"}) {
    if (flags.has(key)) out.emplace_back(key, flags.get(key));
  }
  if (flags.has("set")) {
    std::stringstream items(flags.get("set"));
    std::string item;
    while (std::getline(items, item, ',')) {
      std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "bad --set item \"%s\" (want key=value)\n", item.c_str());
        return false;
      }
      out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
  }
  return true;
}

int run_one(const std::string& name,
            const std::vector<std::pair<std::string, std::string>>& overrides,
            const std::string& golden_path) {
  exp::ScenarioSpec spec = exp::ScenarioRegistry::instance().get(name);
  for (const auto& [key, value] : overrides) exp::apply_override(spec, key, value);
  spec.validate();

  std::printf("%s: %s\n", spec.name.c_str(), spec.description.c_str());
  exp::ScenarioRunResult result = exp::run_scenario(spec);
  std::string table = exp::render_scenario_table(spec, result);
  std::fputs(table.c_str(), stdout);
  if (result.control_rounds > 0) {
    std::printf("mean control round: %.3f ms (wall clock)\n", result.mean_round_ms);
  }

  if (!golden_path.empty()) {
    if (std::getenv("REPRO_UPDATE_GOLDEN") != nullptr) {
      std::ofstream out(golden_path, std::ios::binary);
      out << table;
      std::printf("golden table recorded to %s\n", golden_path.c_str());
      return 0;
    }
    std::ifstream in(golden_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "golden file %s missing (run with REPRO_UPDATE_GOLDEN=1)\n",
                   golden_path.c_str());
      return 1;
    }
    std::stringstream want;
    want << in.rdbuf();
    if (want.str() != table) {
      std::fprintf(stderr, "golden mismatch vs %s\n", golden_path.c_str());
      return 1;
    }
    std::printf("golden table matches %s\n", golden_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags(argc, argv);
  std::vector<std::string> known = {"list", "all",        "backend", "seed",  "duration",
                                    "train-duration", "controller", "set",   "golden", "help"};
  if (flags.get_bool("help")) {
    usage(stdout);
    return 0;
  }
  if (!flags.unknown(known).empty()) {
    for (const auto& u : flags.unknown(known)) {
      std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
    }
    usage(stderr);
    return 2;
  }

  exp::ScenarioRegistry& registry = exp::ScenarioRegistry::instance();

  if (flags.get_bool("list")) {
    for (const auto& name : registry.names()) {
      std::printf("%-24s %s\n", name.c_str(), registry.get(name).description.c_str());
    }
    return 0;
  }

  std::vector<std::pair<std::string, std::string>> overrides;
  if (!gather_overrides(flags, overrides)) return 2;
  std::string golden = flags.get("golden");

  try {
    if (flags.get_bool("all")) {
      if (!golden.empty()) {
        std::fprintf(stderr, "--golden only applies to a single scenario\n");
        return 2;
      }
      for (const auto& name : registry.names()) {
        int rc = run_one(name, overrides, "");
        if (rc != 0) return rc;
        std::printf("\n");
      }
      return 0;
    }
    if (flags.positional().size() != 1) {
      usage(stderr);
      return 2;
    }
    return run_one(flags.positional().front(), overrides, golden);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
