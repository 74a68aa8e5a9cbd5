// Fault-frontier tournament driver.
//
//   frontier_tournament [--quick] [--seed=N] [--json=frontier.json]
//                       [--families=a,b,c] [--max-cardinality=K]
//                       [--max-runs=N] [--weaken=no-reforward|no-backup]
//                       [--jobs=N]
//
// Runs the budgeted frontier search (src/frontier/search.h) and writes the
// canonical survivability envelope. Same flags + same seed => byte-identical
// JSON. The human-readable report goes to stdout, per-run progress to stderr.
// --jobs=N prefetches scenario outcomes on N threads; it changes wall clock
// only — the envelope (and its JSON) is byte-identical for every jobs value,
// which tests/frontier_test.cc asserts.
//
// To regenerate the committed CI baseline after an intentional change
// (documented in EXPERIMENTS.md E17):
//   build/tools/frontier_tournament --quick --seed=1 --json=bench/baselines/FRONTIER.json
//
// --weaken deliberately cripples a recovery path (single forwarding with no
// failure re-forwarding, or no warm-standby controller) so the envelope
// shrinks — the proof that the frontier_compare gate actually bites.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/text_file.h"
#include "src/frontier/envelope.h"
#include "src/frontier/search.h"

namespace {

std::string FlagValue(int argc, char** argv, const std::string& flag) {
  const std::string prefix = "--" + flag + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return "";
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  const std::string name = "--" + flag;
  for (int i = 1; i < argc; ++i) {
    if (name == argv[i]) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t comma = text.find(',', pos);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > pos) {
      out.push_back(text.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  tiger::frontier::FrontierOptions options;
  options.quick = HasFlag(argc, argv, "quick");
  const std::string seed = FlagValue(argc, argv, "seed");
  if (!seed.empty()) {
    options.seed = std::strtoull(seed.c_str(), nullptr, 10);
  }
  const std::string max_cardinality = FlagValue(argc, argv, "max-cardinality");
  if (!max_cardinality.empty()) {
    options.max_cardinality = std::atoi(max_cardinality.c_str());
  }
  const std::string max_runs = FlagValue(argc, argv, "max-runs");
  if (!max_runs.empty()) {
    options.max_runs = std::atoi(max_runs.c_str());
  }
  const std::string jobs = FlagValue(argc, argv, "jobs");
  if (!jobs.empty()) {
    options.jobs = std::atoi(jobs.c_str());
    if (options.jobs < 1) {
      std::fprintf(stderr, "frontier_tournament: --jobs must be >= 1\n");
      return 2;
    }
  }
  options.families = SplitCommas(FlagValue(argc, argv, "families"));
  const std::string weaken = FlagValue(argc, argv, "weaken");
  if (weaken == "no-reforward") {
    options.weaken_no_reforward = true;
  } else if (weaken == "no-backup") {
    options.weaken_no_backup = true;
  } else if (!weaken.empty()) {
    std::fprintf(stderr, "frontier_tournament: unknown --weaken=%s\n", weaken.c_str());
    return 2;
  }
  options.progress = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  const tiger::frontier::FrontierEnvelope envelope = tiger::frontier::RunTournament(options);
  std::printf("%s", tiger::frontier::EnvelopeReport(envelope).c_str());

  const std::string json_path = FlagValue(argc, argv, "json");
  if (!json_path.empty()) {
    if (!tiger::WriteTextFile(json_path, tiger::frontier::EnvelopeJson(envelope))) {
      std::fprintf(stderr, "frontier_tournament: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
