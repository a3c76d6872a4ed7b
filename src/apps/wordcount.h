// WordCount (paper §4): loader -> splitter map -> partial reduce.
//
// The HAMR version uses a PARTIAL reduce - counts increase the moment a word
// arrives, with no aggregation barrier. The baseline is the classic Hadoop
// job with a sum combiner. Both write "word\tcount".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/common.h"
#include "ir/ir.h"

namespace hamr::apps::wordcount {

struct RunInfo {
  double seconds = 0;
  engine::JobResult engine_result;   // HAMR runs only
  mapreduce::MrResult baseline_result;  // baseline runs only
};

// The job as IR: source TextLoader (node 0) -> map Splitter -> combine
// Counter (or reduce CountReducer under ablation A2). `combine` opts the
// Counter into sender-side combining (Table 3) - the place_combiner pass
// turns it into the combine edge. `fused` opts the Splitter into fusion, so
// ir::optimize collapses loader+splitter into one task body (two flowlets,
// byte-identical output). Unfused, the flowlet ids stay loader=0,
// splitter=1, count=2, which the chaos suite's pinned crash points rely on.
ir::Graph build_ir(bool combine = false, bool use_full_reduce = false,
                   bool fused = false);

// Runs on HAMR; output in node-local "out/wordcount/" files.
RunInfo run_hamr(BenchEnv& env, const StagedInput& input, bool combine = false,
                 bool use_full_reduce = false, bool fused = false);

// Runs on the baseline; output in DFS "/out/wordcount/".
RunInfo run_baseline(BenchEnv& env, const StagedInput& input,
                     bool use_combiner = true);

std::map<std::string, uint64_t> hamr_output(BenchEnv& env);
std::map<std::string, uint64_t> baseline_output(BenchEnv& env);

// Sequential reference for correctness checks.
std::map<std::string, uint64_t> reference(const std::vector<std::string>& shards);

}  // namespace hamr::apps::wordcount
