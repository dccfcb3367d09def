#include "src/sim/failure_injector.h"

namespace aurora::sim {

FailureInjector::FailureInjector(Simulator* sim, Network* network,
                                 FailureModel model)
    : sim_(sim), network_(network), model_(model),
      rng_(sim->rng().Fork()) {}

void FailureInjector::Start(std::vector<NodeId> nodes, std::vector<AzId> azs) {
  running_ = true;
  ++generation_;
  for (NodeId n : nodes) ScheduleNodeFailure(n);
  if (model_.az_mttf > 0) {
    for (AzId az : azs) ScheduleAzFailure(az);
  }
}

void FailureInjector::Stop() {
  running_ = false;
  ++generation_;
}

SimDuration FailureInjector::Draw(const char* kind, uint64_t subject,
                                  SimDuration mean) {
  if (replay_ != nullptr) {
    if (replay_cursor_ < replay_->decisions.size() &&
        replay_->decisions[replay_cursor_].kind == kind) {
      return replay_->decisions[replay_cursor_++].value_us;
    }
    ++replay_mismatches_;  // underrun or drift; fall back to the RNG
  }
  const auto value = static_cast<SimDuration>(
      rng_.NextExponential(static_cast<double>(mean)));
  if (record_ != nullptr) {
    record_->decisions.push_back(InjectorDecision{kind, subject, value});
  }
  return value;
}

void FailureInjector::ScheduleNodeFailure(NodeId node) {
  const SimDuration delay = Draw("node_fail_delay", node, model_.node_mttf);
  const uint64_t gen = generation_;
  sim_->Schedule(delay, [this, node, gen]() {
    if (!running_ || gen != generation_) return;
    if (network_->IsUp(node)) {
      network_->Crash(node);
      ++node_failures_;
      const SimDuration repair =
          Draw("node_repair_delay", node, model_.node_mttr);
      sim_->Schedule(repair, [this, node, gen]() {
        if (!running_ || gen != generation_) return;
        network_->Restart(node);
      }, "inj.node_repair");
    }
    ScheduleNodeFailure(node);
  }, "inj.node_fail");
}

void FailureInjector::ScheduleAzFailure(AzId az) {
  const SimDuration delay = Draw("az_fail_delay", az, model_.az_mttf);
  const uint64_t gen = generation_;
  sim_->Schedule(delay, [this, az, gen]() {
    if (!running_ || gen != generation_) return;
    network_->FailAz(az);
    ++az_failures_;
    sim_->Schedule(model_.az_mttr, [this, az, gen]() {
      if (gen != generation_) return;
      network_->RestoreAz(az);
    }, "inj.az_restore");
    ScheduleAzFailure(az);
  }, "inj.az_fail");
}

void FailureInjector::CrashNodeAt(SimTime when, NodeId node) {
  sim_->ScheduleAt(when, [this, node]() { network_->Crash(node); },
                   "inj.script_crash");
}

void FailureInjector::RestartNodeAt(SimTime when, NodeId node) {
  sim_->ScheduleAt(when, [this, node]() { network_->Restart(node); },
                   "inj.script_restart");
}

void FailureInjector::Flap(NodeId node, SimDuration period, int count) {
  if (count <= 0) return;
  // Each dwell is one Draw() in the injector's single decision stream:
  // a recorded run replays the exact same flap rhythm, and a shrunk
  // subset falls back to the forked RNG (counted in replay_mismatches)
  // without perturbing draws that still match.
  const SimDuration down_delay = Draw("flap_down_delay", node, period);
  const uint64_t gen = generation_;
  sim_->Schedule(down_delay, [this, node, period, count, gen]() {
    if (gen != generation_) return;
    // Only restart what this cycle crashed: if another fault (scripted
    // crash, AZ outage, a concurrent schedule op) already has the node
    // down, resurrecting it here would cut that fault's outage short and
    // desynchronize the harness's crash bookkeeping.
    const bool crashed_here = network_->IsUp(node);
    if (crashed_here) {
      network_->Crash(node);
      ++node_failures_;
    }
    const SimDuration up_delay = Draw("flap_up_delay", node, period);
    sim_->Schedule(up_delay, [this, node, period, count, gen,
                              crashed_here]() {
      if (gen != generation_) return;
      if (crashed_here) network_->Restart(node);
      Flap(node, period, count - 1);
    }, "inj.flap_up");
  }, "inj.flap_down");
}

void FailureInjector::SlowNodeAt(SimTime when, NodeId node, double factor,
                                 SimDuration duration) {
  sim_->ScheduleAt(when, [this, node, factor, duration]() {
    network_->SetNodeSlowdown(node, factor);
    sim_->Schedule(duration,
                   [this, node]() { network_->SetNodeSlowdown(node, 1.0); },
                   "inj.slow_end");
  }, "inj.slow_begin");
}

}  // namespace aurora::sim
