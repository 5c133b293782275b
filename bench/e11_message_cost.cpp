/// Experiment E11 (extension) — channel usage and energy proxy.
///
/// Sensor nodes are energy-constrained (the model motivates the missing
/// collision detection by "limitations in energy consumption").  We
/// measure what the protocol costs on the channel: transmissions per node,
/// deliveries, and collision events, across density and wake-up patterns,
/// and compare against the rand-verify baseline.  The per-slot send
/// probability 1/(κ₂Δ) keeps the *rate* constant per neighborhood, so
/// transmissions per node should scale like T/(κ₂Δ) ≈ O(κ₂ log n)
/// per color state.

#include "baselines/rand_verify.hpp"
#include "bench_util.hpp"

int urn::bench::e11_message_cost(const Args& args) {
  banner("E11", "channel usage: transmissions / deliveries / "
                "collisions per node");

  const std::size_t n = 160;
  analysis::Table table(
      "e11_message_cost",
      "E11: channel events per node until quiescence (random UDG, n=160, "
      "4 trials each)");
  table.set_header({"Delta", "k2", "algo", "tx/node", "rx/node",
                    "collisions/node", "tx/slot/node", "slots"});

  for (double side : {11.0, 8.0, 6.3}) {
    Rng rng(mix_seed(0xE11, static_cast<std::uint64_t>(side * 10)));
    const auto net = graph::random_udg(n, side, 1.5, rng);
    const core::Params params = sweep_params(net.graph);
    // One row per algorithm: per-node event counts and slots, averaged
    // over its four runs in trial order.
    auto row = [&](const char* algo,
                   const std::vector<radio::RunStats>& runs) {
      double tx = 0, rx = 0, coll = 0, slots = 0;
      for (const radio::RunStats& m : runs) {
        tx += static_cast<double>(m.transmissions) / n / 4.0;
        rx += static_cast<double>(m.deliveries) / n / 4.0;
        coll += static_cast<double>(m.collisions) / n / 4.0;
        slots += static_cast<double>(m.slots_run) / 4.0;
      }
      table.add_row(
          {analysis::Table::num(static_cast<std::uint64_t>(params.delta)),
           analysis::Table::num(static_cast<std::uint64_t>(params.kappa2)),
           algo,
           analysis::Table::num(tx, 0), analysis::Table::num(rx, 0),
           analysis::Table::num(coll, 0), analysis::Table::num(tx / slots, 5),
           analysis::Table::num(slots, 0)});
    };

    row("this paper",
        exec::map_trials(4, args.executor(), [&](std::size_t t) {
          Rng wrng(mix_seed(0xE11F, t));
          const auto ws = radio::WakeSchedule::uniform(
              n, 2 * params.threshold(), wrng);
          return core::run_coloring(net.graph, params, ws,
                                    mix_seed(0xE11A, t))
              .medium;
        }));

    baselines::RandVerifyParams rv;
    rv.n = n;
    rv.delta = params.delta;
    row("rand-verify",
        exec::map_trials(4, args.executor(), [&](std::size_t t) {
          return baselines::run_rand_verify(
                     net.graph, rv, radio::WakeSchedule::synchronous(n),
                     mix_seed(0xE11B, t), 60000000)
              .medium;
        }));
  }
  table.emit();
  std::printf("Shape: the protocol's per-slot duty cycle stays ~1/(k2*D) "
              "per node by construction; totals grow with the running "
              "time.  The rand-verify baseline duty-cycles at 1/D — "
              "higher rate, fewer slots at these sizes.\n");
  return 0;
}
