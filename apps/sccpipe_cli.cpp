// sccpipe — command-line driver: run any walkthrough configuration and
// print the full metrics block, optionally as CSV. The scripting-friendly
// way to explore the design space beyond the fixed paper harnesses.
//
//   $ sccpipe --scenario mcpc --pipelines 5 --arrangement flipped
//   $ sccpipe --scenario n-rend --pipelines 7 --platform cluster
//   $ sccpipe --scenario mcpc --blur-mhz 800 --tail-mhz 400 --isolate-blur
//   $ sccpipe --list           # enumerate accepted option values

#include <cstdint>
#include <cstdio>
#include <string>

#include "sccpipe/core/walkthrough.hpp"
#include "sccpipe/exec/executor.hpp"
#include "sccpipe/support/args.hpp"
#include "sccpipe/support/snapshot.hpp"
#include "sccpipe/support/table.hpp"

#include "run_flags.hpp"

// Exit codes: 0 ok, 1 run failed gracefully (typed fault), 2 bad flags,
// 65 checkpoint/resume data error, 70 planned crash (the run died at a
// crash-at instant; resume with --resume to continue it).

using namespace sccpipe;

namespace {

/// Largest pipeline count validate_run_config() accepts for the shape of
/// \p cfg (0 if none fits).
int max_pipelines(RunConfig cfg) {
  int best = 0;
  for (int k = 1; k <= StripCounts::kMax; ++k) {
    cfg.pipelines = k;
    if (validate_run_config(cfg).ok()) best = k;
  }
  return best;
}

/// The --pipelines help line, with the limits the placement really has.
std::string pipelines_help() {
  const auto limit = [](Scenario s, Arrangement a) {
    RunConfig cfg;
    cfg.scenario = s;
    cfg.arrangement = a;
    return std::to_string(max_pipelines(cfg));
  };
  return "number of parallel pipelines; the SCC hosts 1-rend/mcpc 1.." +
         limit(Scenario::HostRenderer, Arrangement::Ordered) +
         " (unordered 1.." +
         limit(Scenario::HostRenderer, Arrangement::Unordered) +
         "), n-rend 1.." +
         limit(Scenario::RendererPerPipeline, Arrangement::Ordered) +
         " (unordered 1.." +
         limit(Scenario::RendererPerPipeline, Arrangement::Unordered) +
         "); --isolate-blur and --platform cluster change the limit";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("scenario", "1-rend | n-rend | mcpc", "mcpc");
  args.add_flag("arrangement", "unordered | ordered | flipped", "ordered");
  args.add_flag("platform", "scc | cluster", "scc");
  args.add_flag("pipelines", pipelines_help(), "4");
  args.add_flag("frames", "walkthrough length", "400");
  args.add_flag("size", "frame side length in pixels", "400");
  args.add_flag("blur-mhz", "blur tile frequency (400/533/800/1066; 0=default)", "0");
  args.add_flag("tail-mhz", "post-blur stage frequency (0=default)", "0");
  args.add_flag("isolate-blur", "place blur alone on its tile (Fig. 18)", "false");
  args.add_flag("seed", "scratch/flicker random seed", "42");
  add_run_flags(args);
  args.add_flag("fault-seed",
                "fault schedule RNG seed (0 = keep the plan's seed)", "0");
  args.add_flag("checkpoint-every",
                "write a run snapshot every N delivered frames (0 = off)",
                "0");
  args.add_flag("checkpoint-file",
                "snapshot path, written atomically (tmp + rename)", "");
  args.add_flag("resume",
                "load --checkpoint-file, verify it by deterministic replay "
                "and continue past the crash that ended the previous attempt",
                "false");
  args.add_flag("csv", "emit one CSV row instead of tables", "false");
  args.add_flag("timeline", "write a chrome://tracing JSON to this path", "");
  args.add_flag("stages", "print the per-stage report", "true");
  args.add_flag("list", "print accepted values and exit", "false");
  args.add_flag("help", "show this help", "false");

  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(),
                 args.usage("sccpipe").c_str());
    return 2;
  }
  if (args.get_bool("help")) {
    std::printf("%s", args.usage("sccpipe").c_str());
    return 0;
  }
  if (args.get_bool("list")) {
    std::printf("scenarios:    1-rend (Fig. 3), n-rend (Fig. 6), mcpc (Fig. 7)\n");
    std::printf("arrangements: unordered, ordered, flipped (Figs. 3-5)\n");
    std::printf("platforms:    scc (SCC+MCPC), cluster (Mogon node, Fig. 13)\n");
    return 0;
  }
  if (const Status st = exec::check_jobs_env(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 2;
  }

  RunConfig cfg;
  if (!parse_scenario(args.get("scenario"), &cfg.scenario)) {
    std::fprintf(stderr, "error: unknown scenario '%s'\n",
                 args.get("scenario").c_str());
    return 2;
  }
  if (!parse_arrangement(args.get("arrangement"), &cfg.arrangement)) {
    std::fprintf(stderr, "error: unknown arrangement '%s'\n",
                 args.get("arrangement").c_str());
    return 2;
  }
  if (!parse_platform(args.get("platform"), &cfg.platform)) {
    std::fprintf(stderr, "error: unknown platform '%s'\n",
                 args.get("platform").c_str());
    return 2;
  }
  cfg.pipelines = args.get_int("pipelines");
  cfg.blur_mhz = args.get_int("blur-mhz");
  cfg.tail_mhz = args.get_int("tail-mhz");
  cfg.isolate_blur_tile = args.get_bool("isolate-blur");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const int fault_seed = args.get_int("fault-seed");
  cfg.checkpoint.every_frames = args.get_int("checkpoint-every");
  cfg.checkpoint.file = args.get("checkpoint-file");
  cfg.checkpoint.resume = args.get_bool("resume");
  const int frames = args.get_int("frames");
  const int size = args.get_int("size");
  // Last read: its Status also carries the first malformed number above.
  if (const Status st = read_run_flags(args, &cfg); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 2;
  }
  if (fault_seed < 0) {
    std::fprintf(stderr, "error: --fault-seed must be at least 0 (0 = keep "
                 "the plan's seed), got %d\n", fault_seed);
    return 2;
  }
  if (fault_seed > 0) cfg.fault.seed = static_cast<std::uint64_t>(fault_seed);
  if (const Status st = snapshot::validate_checkpoint_args(
          cfg.checkpoint.every_frames, args.has("checkpoint-every"),
          cfg.checkpoint.file, cfg.checkpoint.resume);
      !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 2;
  }
  if (frames <= 0 || size <= 0) {
    std::fprintf(stderr, "error: --frames and --size must be positive, got "
                 "%d and %d\n", frames, size);
    return 2;
  }
  if (const Status st = validate_run_config(cfg); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    const int limit = max_pipelines(cfg);
    if (limit > 0 && cfg.pipelines > limit) {
      std::fprintf(stderr, "       this configuration hosts at most %d "
                   "pipelines\n", limit);
    }
    return 2;
  }
  if (const Status st = validate_frame_size(size, strip_counts_for({cfg}));
      !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 2;
  }

  std::fprintf(stderr, "[sccpipe] building scene (%d frames at %dx%d)...\n",
               frames, size, size);
  SceneBundle scene(CityParams{}, CameraConfig{}, size, frames);
  // Only the strip counts this run reads, culled on every host core.
  const WorkloadTrace trace =
      WorkloadTrace::build(scene, strip_counts_for({cfg}),
                           exec::trace_runner(exec::default_jobs()));
  TimelineRecorder timeline;
  const std::string timeline_path = args.get("timeline");
  if (!timeline_path.empty()) cfg.timeline = &timeline;
  const RunResult r = run_walkthrough(scene, trace, cfg);
  if (!timeline_path.empty()) {
    timeline.write(timeline_path);
    std::fprintf(stderr, "[sccpipe] timeline (%zu spans) -> %s\n",
                 timeline.size(), timeline_path.c_str());
  }

  if (r.checkpoint.error_code != StatusCode::Ok) {
    std::fprintf(stderr, "error: checkpoint: [%s] %s\n",
                 status_code_name(r.checkpoint.error_code),
                 r.checkpoint.error.c_str());
    return 65;
  }
  if (r.checkpoint.crashed) {
    std::fprintf(stderr,
                 "[sccpipe] run crashed at the planned instant %.3f s with "
                 "%llu checkpoint(s) on disk; rerun with --resume "
                 "--checkpoint-file %s to continue\n",
                 r.checkpoint.crashed_at_ms / 1000.0,
                 static_cast<unsigned long long>(r.checkpoint.checkpoints_written),
                 cfg.checkpoint.file.c_str());
    return 70;
  }

  if (args.get_bool("csv")) {
    std::printf("scenario,arrangement,platform,pipelines,frames,walkthrough_s,"
                "mean_watts,chip_energy_j,host_busy_s,host_extra_j,"
                "failures_detected,failures_recovered,frames_replayed,"
                "frames_lost,spares_used,max_detect_ms,post_failure_fps,"
                "gray_flags,gray_dvfs,gray_migrations,gray_rebalances,"
                "gray_escalations,gray_drained,gray_shed,"
                "post_mitigation_fps,%s\n",
                TransportReport::csv_header().c_str());
    std::printf("%s,%s,%s,%d,%d,%.3f,%.2f,%.1f,%.3f,%.1f,%d,%d,%d,%d,%d,"
                "%.3f,%.3f,%d,%d,%d,%d,%d,%d,%llu,%.3f,%s\n",
                scenario_name(cfg.scenario), arrangement_name(cfg.arrangement),
                platform_name(cfg.platform),
                cfg.pipelines, frames, r.walkthrough.to_sec(),
                r.mean_chip_watts, r.chip_energy_joules, r.host_busy_sec,
                r.host_extra_energy_joules, r.recovery.failures_detected,
                r.recovery.failures_recovered, r.recovery.frames_replayed,
                r.recovery.frames_lost, r.recovery.spares_used,
                r.recovery.max_detection_latency_ms,
                r.recovery.post_failure_fps, r.gray.flags_raised,
                r.gray.dvfs_boosts, r.gray.migrations, r.gray.rebalances,
                r.gray.escalations, r.gray.frames_drained,
                static_cast<unsigned long long>(r.gray.frames_shed),
                r.gray.post_mitigation_fps, r.transport.csv().c_str());
    return r.fault.failed ? 1 : 0;
  }

  std::printf("configuration: %s, %s, %d pipeline(s) on %s\n",
              scenario_name(cfg.scenario), arrangement_name(cfg.arrangement),
              cfg.pipelines,
              cfg.platform == PlatformKind::Scc ? "SCC+MCPC" : "cluster node");
  std::printf("walkthrough:   %.3f s simulated (%d frames)\n",
              r.walkthrough.to_sec(), frames);
  std::printf("chip power:    %.1f W mean, %.0f J\n", r.mean_chip_watts,
              r.chip_energy_joules);
  if (r.host_busy_sec > 0.0) {
    std::printf("host:          busy %.2f s, extra %.0f J\n", r.host_busy_sec,
                r.host_extra_energy_joules);
  }
  if (r.checkpoint.enabled) {
    std::printf("checkpoints:   %llu written (last at frame %llu)%s%s\n",
                static_cast<unsigned long long>(r.checkpoint.checkpoints_written),
                static_cast<unsigned long long>(
                    r.checkpoint.last_checkpoint_frames),
                r.checkpoint.resumed ? ", resumed" : "",
                r.checkpoint.resume_verified ? " and replay-verified" : "");
  }
  if (r.fault.enabled) {
    std::printf("fault layer:   seed %llu, fingerprint %016llx\n",
                static_cast<unsigned long long>(cfg.fault.seed),
                static_cast<unsigned long long>(r.fault.fingerprint));
    std::printf("  rcce: %llu drops, %llu delays, %llu retransmissions, "
                "%llu transfers failed\n",
                static_cast<unsigned long long>(r.fault.rcce_drops),
                static_cast<unsigned long long>(r.fault.rcce_delays),
                static_cast<unsigned long long>(r.fault.rcce_retransmissions),
                static_cast<unsigned long long>(r.fault.rcce_transfers_failed));
    std::printf("  host: %llu drops, %llu delays, %llu retransmissions\n",
                static_cast<unsigned long long>(r.fault.host_drops),
                static_cast<unsigned long long>(r.fault.host_delays),
                static_cast<unsigned long long>(r.fault.host_retransmissions));
    if (r.fault.rcce_corrupts > 0 || r.fault.host_corrupts > 0) {
      std::printf("  crc:  %llu rcce + %llu host payloads corrupted, all "
                  "caught and retried\n",
                  static_cast<unsigned long long>(r.fault.rcce_corrupts),
                  static_cast<unsigned long long>(r.fault.host_corrupts));
    }
    if (r.fault.failed) {
      std::printf("  RUN FAILED after %d/%d frames at %.3f s: %s\n",
                  r.fault.frames_completed, frames,
                  r.fault.failed_at_ms / 1000.0, r.fault.failure.c_str());
      for (const std::string& e : r.fault.stage_errors) {
        std::printf("    %s\n", e.c_str());
      }
    }
  }
  if (r.transport.enabled || r.recovery.enabled || r.gray.enabled) {
    // The run's one frame ledger. A closed-loop run offers the whole
    // walkthrough; an overload run counts what its feeder saw.
    const TransportReport& t = r.transport;
    const auto n = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf("frames:        %llu offered = %zu delivered + %llu shed "
                "(admission) + %llu shed (breaker) + %llu shed (deadline) + "
                "%llu shed (transport) + %d lost\n",
                t.enabled ? n(t.frames_offered) : n(frames),
                r.frame_done_ms.size(), n(t.shed_admission),
                n(t.shed_breaker), n(t.shed_deadline), n(t.shed_transport),
                r.recovery.frames_lost);
  }
  if (r.transport.enabled) {
    const TransportReport& t = r.transport;
    std::printf("transport:     %llu first sends, %llu retransmits, %llu "
                "dups suppressed; srtt %.3f ms\n",
                static_cast<unsigned long long>(t.first_sends),
                static_cast<unsigned long long>(t.retransmissions),
                static_cast<unsigned long long>(t.dup_suppressed),
                t.smoothed_rtt_ms);
    std::printf("  backpressure: %llu credit stalls (%.1f ms); queue peaks "
                "feeder %d, link %d, stage %d\n",
                static_cast<unsigned long long>(t.credit_stalls),
                t.credit_stall_ms, t.max_feeder_queue, t.max_link_queue,
                t.max_stage_queue);
    std::printf("  outcome: goodput %.2f fps, latency p50 %.1f ms / p99 "
                "%.1f ms; breaker %d trip(s), final %s\n",
                t.goodput_fps, t.p50_latency_ms, t.p99_latency_ms,
                t.breaker_trips, breaker_state_name(t.breaker_final));
    for (const BreakerTransition& bt : t.breaker_transitions) {
      std::printf("    breaker %s -> %s at %.3f s\n",
                  breaker_state_name(bt.from), breaker_state_name(bt.to),
                  bt.at.to_sec());
    }
  }
  if (r.recovery.enabled) {
    std::printf("recovery:      %d failure(s) detected, %d recovered "
                "(%d remap, %d degrade); max detection latency %.3f ms\n",
                r.recovery.failures_detected, r.recovery.failures_recovered,
                r.recovery.spares_used, r.recovery.pipelines_lost,
                r.recovery.max_detection_latency_ms);
    std::printf("  replay: %d frame(s) replayed, %d lost; checkpoints %llu "
                "writes / %llu reads (%.0f KiB DRAM traffic)\n",
                r.recovery.frames_replayed, r.recovery.frames_lost,
                static_cast<unsigned long long>(r.recovery.checkpoint_writes),
                static_cast<unsigned long long>(r.recovery.checkpoint_replays),
                r.recovery.checkpoint_bytes / 1024.0);
    std::printf("  liveness: %llu heartbeats (%.0f KiB mesh traffic)",
                static_cast<unsigned long long>(r.recovery.heartbeats_sent),
                r.recovery.heartbeat_bytes / 1024.0);
    if (r.recovery.post_failure_fps > 0.0) {
      std::printf("; post-failure throughput %.2f fps",
                  r.recovery.post_failure_fps);
    }
    std::printf("\n");
    for (const FailureRecord& f : r.recovery.failures) {
      std::printf("  core %d (%s, pipeline %d) died %.3f s, detected +%.3f "
                  "ms -> %s\n",
                  f.core, stage_name(f.stage), f.pipeline,
                  f.failed_at_ms / 1000.0, f.detection_latency_ms,
                  f.degraded ? "degraded"
                  : f.remapped_to >= 0
                      ? ("remapped to core " + std::to_string(f.remapped_to))
                            .c_str()
                      : (f.recovered ? "no action needed" : "run failed"));
    }
  }
  if (r.gray.enabled) {
    const GrayReport& g = r.gray;
    std::printf("gray failures: %d flag(s) -> %d dvfs boost(s), %d "
                "migration(s), %d rebalance(s), %d escalation(s); %d "
                "in-flight frame(s) drained through migration\n",
                g.flags_raised, g.dvfs_boosts, g.migrations, g.rebalances,
                g.escalations, g.frames_drained);
    if (g.post_mitigation_fps > 0.0) {
      std::printf("  post-mitigation throughput %.2f fps\n",
                  g.post_mitigation_fps);
    }
    for (const GrayActionRecord& a : g.actions) {
      std::printf("  core %d (%s, pipeline %d) flagged %.3f s -> %s%s; "
                  "p50 %.2f -> %.2f ms (norm %.2f vs median %.2f, "
                  "streak %d)\n",
                  a.core, stage_name(a.stage), a.pipeline,
                  a.flagged_at_ms / 1000.0, a.action.c_str(),
                  a.migrated_to >= 0
                      ? (" to core " + std::to_string(a.migrated_to)).c_str()
                      : "",
                  a.before_stage_ms, a.after_stage_ms, a.evidence.norm,
                  a.evidence.median_norm, a.evidence.streak);
    }
  }

  if (args.get_bool("stages")) {
    TextTable table({"stage", "pl", "core", "busy ms/frame", "wait med [ms]",
                     "wait q1-q3 [ms]"});
    for (const StageReport& st : r.stages) {
      table.row()
          .add(stage_name(st.kind))
          .add(st.pipeline)
          .add(st.core)
          .add(st.busy_ms / std::max(1, st.frames), 2)
          .add(st.wait_ms.median, 1)
          .add(format_fixed(st.wait_ms.q1, 1) + "-" +
               format_fixed(st.wait_ms.q3, 1));
    }
    std::printf("\n%s", table.to_string().c_str());
  }
  return r.fault.failed ? 1 : 0;
}
