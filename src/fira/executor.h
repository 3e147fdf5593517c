#ifndef TUPELO_FIRA_EXECUTOR_H_
#define TUPELO_FIRA_EXECUTOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "fira/function_registry.h"
#include "fira/operators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace tupelo {

// Fault-injection seam for tests: when installed (SetFaultInjector),
// ApplyOp consults the injector before executing each operator and returns
// the injected error Status instead of running it. This is how tests prove
// that operator failures propagate as Status (not crashes) through search,
// verification, and the degradation ladder. Disarmed and uninstalled
// injectors cost one relaxed atomic load per ApplyOp.
class FaultInjector {
 public:
  // Firing discipline of an armed injector. All modes share the same match
  // rule (`op_name`, "*" for every operator) and counters; they differ only
  // in which matching applications fail.
  enum class Mode {
    kAfterSkip,       // fail every application after the first `skip`
    kProbabilistic,   // fail each application with probability p (seeded)
    kEveryNth,        // fail every Nth matching application
  };

  // What a fired fault *does* at the ApplyOp boundary. kStatus is the
  // classic typed-error injection; the chaos kinds below exercise the
  // supervision layer (runtime/supervisor.h):
  //   kThrow    — throw std::runtime_error out of ApplyOp: a poison state
  //               for the quarantine (or a lethal escape without one);
  //   kBadAlloc — throw std::bad_alloc: simulated allocation failure
  //               inside Expand;
  //   kDelay    — sleep `delay_millis` on the applying thread, then
  //               execute normally: a hung/slow rung for the watchdog's
  //               stall detector.
  enum class Kind {
    kStatus,
    kThrow,
    kBadAlloc,
    kDelay,
  };

  // A fired fault as ApplyOp consumes it.
  struct Fault {
    Kind kind = Kind::kStatus;
    Status status;
    int64_t delay_millis = 0;
  };

  // Arms the injector: applications of `op_name` (script-name form —
  // "promote", "rename_att", ...; "*" matches every operator) fail with
  // `status` after `skip` matching applications have been allowed through.
  // Re-arming replaces the previous configuration and resets counters.
  void Arm(std::string op_name, Status status, uint64_t skip = 0);

  // Arms seeded-probabilistic firing: each matching application fails with
  // probability `probability` (clamped to [0, 1]), decided by a counter-
  // keyed hash of `seed` — the fire pattern is a pure function of (seed,
  // consult index), so campaigns replay exactly.
  void ArmProbabilistic(std::string op_name, Status status,
                        double probability, uint64_t seed);

  // Arms every-Nth firing: matching applications numbered n, 2n, 3n, ...
  // (1-based) fail. n == 0 never fires.
  void ArmEveryNth(std::string op_name, Status status, uint64_t n);

  void Disarm();

  // Overrides what the armed configuration does when it fires (default
  // Kind::kStatus). Orthogonal to the firing discipline: any Arm* mode
  // can throw, stall, or simulate allocation failure. Arm*/Disarm reset
  // the kind back to kStatus.
  void SetKind(Kind kind, int64_t delay_millis = 0);

  // Caps how many times the armed configuration fires (0 = unlimited,
  // the default). A one-shot stall (`SetMaxFires(1)` with Kind::kDelay)
  // is the deterministic "transient fault" of the retry/backoff tests.
  void SetMaxFires(uint64_t max_fires);

  // Matching applications consulted so far (allowed + failed) since the
  // last Arm. Lets tests position `skip` deterministically, e.g. at the
  // first verification replay after a search.
  uint64_t consults() const;
  // Applications actually failed since the last Arm.
  uint64_t injected() const;

  // Consulted by ApplyOp; returns true and fills `out` when this
  // application must fault (see Fault::kind for what to do).
  bool ShouldFail(std::string_view op_name, Fault* out);

 private:
  mutable std::mutex mu_;
  bool armed_ = false;
  Mode mode_ = Mode::kAfterSkip;
  Kind kind_ = Kind::kStatus;
  std::string op_name_;
  Status status_;
  uint64_t skip_ = 0;
  double probability_ = 0.0;
  uint64_t seed_ = 0;
  uint64_t every_n_ = 0;
  int64_t delay_millis_ = 0;
  uint64_t max_fires_ = 0;
  uint64_t consults_ = 0;
  uint64_t injected_ = 0;
};

// Installs the process-wide injector consulted by ApplyOp (nullptr to
// uninstall). The injector must outlive its installation. Test-only seam.
void SetFaultInjector(FaultInjector* injector);
FaultInjector* GetFaultInjector();

// Applies one operator of L to a database state, producing the successor
// state. The input is untouched. `registry` may be null when `op` is not an
// ApplyFunctionOp. Fails (never crashes) on inapplicable operators:
// missing relations/attributes, name collisions, unknown functions.
//
// With a non-null `metrics`, each call updates the per-operator
// instruments executor.<op>.{count,nanos,failures} (op in script-name
// form: "promote", "demote", "partition", ...). A null registry skips
// instrumentation entirely — no clock reads, no lookups.
//
// With a non-null `trace`, each call emits one "op.<name>" span in the
// executor category (where chains of cheap adjacent operators — fusion
// candidates — become visible on the timeline), and a fired fault
// injection emits a "fault.injected" instant in the fault category,
// which arms the flight-recorder dump trigger.
Result<Database> ApplyOp(const Op& op, const Database& input,
                         const FunctionRegistry* registry = nullptr,
                         obs::MetricRegistry* metrics = nullptr,
                         obs::TraceSession* trace = nullptr);

}  // namespace tupelo

#endif  // TUPELO_FIRA_EXECUTOR_H_
