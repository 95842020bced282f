// fa_perfbench — one workload of the fa_served benchmark per invocation.
//
//   fa_perfbench run --workload NAME --served PATH --served-args "ARGS"
//       --protocol http|binary --places zipf|uniform --mix op=w,...
//       --rate R --limit-ms L [--prepare-increments K] --seed N
//       --seconds T --trace 0|1 --workdir DIR [--corrupt-sample N]
//   fa_perfbench selftest
//
// perfbench/run.py builds this binary and fills the arguments from
// perfbench/spec.json. The last stdout line is the JSON result; the exit
// code is non-zero when any checked reply was wrong.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fa_perfbench run --workload NAME --served PATH "
               "--served-args ARGS --protocol http|binary --places "
               "zipf|uniform --mix op=w,... --rate R --limit-ms L "
               "[--prepare-increments K] --seed N --seconds T --trace 0|1 "
               "--workdir DIR [--corrupt-sample N]\n"
               "       fa_perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options o;
  bool trace = false;
  std::string mix = "point=1", protocol = "binary", places = "uniform";
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--served") o.served = v;
    else if (k == "--served-args") {
      std::istringstream in(v);
      for (std::string a; in >> a;) o.served_args.push_back(a);
    } else if (k == "--protocol") protocol = v;
    else if (k == "--places") places = v;
    else if (k == "--mix") mix = v;
    else if (k == "--rate") o.rate = std::atof(v.c_str());
    else if (k == "--limit-ms") o.limit_ms = std::atof(v.c_str());
    else if (k == "--prepare-increments") o.prepare_increments = std::atoi(v.c_str());
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = v == "1";
    else if (k == "--workdir") o.workdir = v;
    else if (k == "--corrupt-sample") o.corrupt_sample = std::atoi(v.c_str());
    else {
      std::fprintf(stderr, "fa_perfbench: unknown flag %s\n", k.c_str());
      return usage();
    }
  }
  o.mix.http = protocol == "http";
  o.mix.zipf_places = places == "zipf";
  try {
    if (mode == "selftest") return run_selftest(o);
    if (o.served.empty() || o.workdir.empty()) return usage();
    if (mode != "run" || !parse_mix(mix, o.mix) || !(o.rate > 0.0) ||
        !(o.seconds > 0.0)) {
      return usage();
    }
    const Report rep = trace ? run_traced(o) : run_workload(o);
    rep.print();
    return rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fa_perfbench: fatal: %s\n", e.what());
    return 1;
  }
}
