// Demonstrates (and lets CI smoke-test) the mpisim debug tooling: the
// collective-correctness sanitizer and the deadlock forensics dump.
//
// Modes:
//   ./examples/sanitizer_demo clean       -- consistent collectives; exit 0
//   ./examples/sanitizer_demo wrong-root  -- rank 1 broadcasts from the
//       wrong root; under the sanitizer this exits 1 with a
//       CollectiveMismatchError diagnostic naming both ranks and their
//       divergent sequence numbers (it must NOT run into the deadlock
//       timeout).
//   ./examples/sanitizer_demo deadlock    -- a mutual-receive cycle; the
//       proactive detector dumps the per-rank wait graph and the demo
//       exits 3.
//
// The sanitizer is opt-in: set MPISIM_SANITIZE=1 (the CI job does), or
// flip RuntimeConfig::sanitize_collectives in code.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "mpisim/mpisim.hpp"

namespace {

int RunMode(const char* mode) {
  mpisim::RuntimeConfig opts;
  opts.num_ranks = 4;
  // Keep a stuck demo short; MPISIM_DEADLOCK_TIMEOUT_MS still overrides.
  opts.deadlock_timeout = std::chrono::milliseconds(5000);
  mpisim::Runtime rt(opts);

  try {
    if (std::strcmp(mode, "deadlock") == 0) {
      rt.Run([](mpisim::Comm& world) {
        // Every rank waits for its left neighbor; nobody ever sends.
        double x = 0.0;
        const int left = (world.Rank() + world.Size() - 1) % world.Size();
        mpisim::Recv(&x, 1, mpisim::Datatype::kFloat64, left, 11, world);
      });
    } else {
      const bool wrong_root = std::strcmp(mode, "wrong-root") == 0;
      rt.Run([wrong_root](mpisim::Comm& world) {
        mpisim::Barrier(world);
        double x = world.Rank() == 0 ? 3.14 : 0.0;
        const int root = (wrong_root && world.Rank() == 1) ? 1 : 0;
        mpisim::Bcast(&x, 1, mpisim::Datatype::kFloat64, root, world);
        mpisim::Barrier(world);
      });
    }
  } catch (const mpisim::CollectiveMismatchError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  } catch (const mpisim::DeadlockError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 3;
  }
  std::printf("sanitizer_demo: %s mode completed cleanly (sanitizer %s)\n",
              mode, rt.options().sanitize_collectives ? "on" : "off");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* mode = argc > 1 ? argv[1] : "clean";
  if (std::strcmp(mode, "clean") != 0 && std::strcmp(mode, "wrong-root") != 0 &&
      std::strcmp(mode, "deadlock") != 0) {
    std::fprintf(stderr, "usage: sanitizer_demo [clean|wrong-root|deadlock]\n");
    return 2;
  }
  return RunMode(mode);
}
