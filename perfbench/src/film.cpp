// functional_film: run_walkthrough with real pixels (functional = true) at
// 400x400 on a seeded city. Ops alternate a renderer-per-pipeline film and
// a host-renderer film, both at k = 4 over a 40-frame walkthrough. The
// render and filter kernels and the payload handling do the work; the
// trace and event dispatch are negligible.

#include "digest.hpp"
#include "layers.hpp"
#include "sccpipe/exec/executor.hpp"
#include "sccpipe/filters/reference.hpp"
#include "sccpipe/support/rng.hpp"

namespace perfbench {

using namespace sccpipe;

namespace {

constexpr int kFilmFrames = 40;
constexpr int kSide = 400;
constexpr int kPipelines = 4;

/// Frame \p f of \p cfg's film composed serially: render_strip per
/// divide_rows strip, the reference filter kernels, mirrored strip order.
Image reference_frame(const SceneBundle& scene, const RunConfig& cfg, int f) {
  const Mat4 view = scene.path().view(f);
  Image out(kSide, kSide);
  for (const StripRange& s : divide_rows(kSide, cfg.pipelines)) {
    Image img = scene.renderer().render_strip(view, s);
    reference::apply_sepia(img);
    reference::apply_blur(img);
    reference::apply_scratches(
        img,
        scratch_params_for_frame(cfg.seed, f, kSide, cfg.cal.max_scratches));
    reference::apply_flicker(img, flicker_params_for_frame(cfg.seed, f));
    reference::apply_vflip(img);
    out.paste(img, kSide - s.y0 - s.rows);
  }
  return out;
}

/// Repeat the film's pixel work through the public kernels, one span per
/// call, to split a functional frame into render, filters and the rest.
void replay_pixel_work(const SceneBundle& scene, const RunConfig& cfg,
                        SpanRecorder& spans, Report& rep) {
  RenderStats total;
  for (int f = 0; f < kFilmFrames; ++f) {
    const Mat4 view = scene.path().view(f);
    for (const StripRange& s : divide_rows(kSide, cfg.pipelines)) {
      RenderStats st;
      Image img;
      {
        auto sp = spans.span("render.strip");
        img = scene.renderer().render_strip(view, s, &st);
      }
      total.triangles_transformed += st.triangles_transformed;
      total.raster.pixels_filled += st.raster.pixels_filled;
      {
        auto sp = spans.span("filters.sepia");
        apply_sepia(img);
      }
      {
        auto sp = spans.span("filters.blur");
        apply_blur(img);
      }
      {
        auto sp = spans.span("filters.scratch");
        apply_scratches(img, scratch_params_for_frame(cfg.seed, f, kSide,
                                                      cfg.cal.max_scratches));
      }
      {
        auto sp = spans.span("filters.flicker");
        apply_flicker(img, flicker_params_for_frame(cfg.seed, f));
      }
      {
        auto sp = spans.span("filters.vflip");
        apply_vflip(img);
      }
    }
  }
  const double render_ms = spans.total_ms("render.strip");
  rep.set("render.strip_ms", median(spans.durations_ms("render.strip")), "ms");
  rep.set("render.mpix_per_s",
          kFilmFrames * double{kSide} * kSide / 1e6 / (render_ms / 1e3),
          "Mpix/s");
  rep.set("render.triangles_transformed",
          static_cast<double>(total.triangles_transformed) / kFilmFrames,
          "count");
  rep.set("render.pixels_filled",
          static_cast<double>(total.raster.pixels_filled) / kFilmFrames,
          "count");
  for (const char* name : {"sepia", "blur", "scratch", "flicker", "vflip"}) {
    const std::string span = std::string("filters.") + name;
    rep.set(span + "_ms", spans.total_ms(span) / kFilmFrames, "ms");
  }
}

}  // namespace

Report run_functional_film(const Options& opt, SpanRecorder& spans) {
  Report rep;
  Rng rng(opt.seed ^ 0xf11b5eedull);
  CityParams city;
  city.seed = rng.next();
  std::vector<RunConfig> cfgs(2);
  cfgs[0].scenario = Scenario::RendererPerPipeline;
  cfgs[1].scenario = Scenario::HostRenderer;
  for (RunConfig& c : cfgs) {
    c.pipelines = kPipelines;
    c.functional = true;
    c.seed = rng.next();
  }
  if (opt.plan_only) {
    rep.note("city seed " + std::to_string(city.seed) + ", " +
             std::to_string(kFilmFrames) + " frames at " +
             std::to_string(kSide) + "x" + std::to_string(kSide));
    for (const RunConfig& c : cfgs) {
      rep.note(std::string("film ") + scenario_name(c.scenario) + " k=" +
               std::to_string(c.pipelines) + " seed " + std::to_string(c.seed));
    }
    return rep;
  }

  std::unique_ptr<SceneBundle> scene;
  std::unique_ptr<WorkloadTrace> trace;
  const double setup_s = median_setup_seconds([&] {
    {
      auto sp = spans.span("scene.build");
      scene = std::make_unique<SceneBundle>(city, CameraConfig{}, kSide,
                                            kFilmFrames);
    }
    auto sp = spans.span("workload.trace_build");
    trace = std::make_unique<WorkloadTrace>(WorkloadTrace::build(
        *scene, kPipelines, exec::trace_runner(opt.jobs)));
  });

  OpLog ops;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<RunResult> first(cfgs.size());  // first film of each config
  std::vector<std::string> first_digest(cfgs.size());
  const auto film = [&] {
    const std::size_t which = ops.size() % cfgs.size();
    const RunConfig& cfg = cfgs[which];
    const bool traced = spans.enabled();
    const auto t0 = Clock::now();
    RunResult r;
    {
      auto sp = spans.span("walkthrough.run_functional");
      r = run_walkthrough(*scene, *trace, cfg);
    }
    const double ms = seconds_since(t0) * 1e3;
    ops.add(ms, 1.0, static_cast<double>(r.events_dispatched),
            static_cast<double>(r.frames.size()));
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ++rep.attempted;

    bool ok = true;
    const std::string label =
        std::string("film ") + scenario_name(cfg.scenario);
    const std::string why = check_run(cfg, r, kFilmFrames);
    if (!why.empty()) {
      rep.fail_check(label + ": " + why);
      ok = false;
    } else {
      // One sampled frame per film against the serial reference.
      const int f = static_cast<int>(rng.below(kFilmFrames));
      if (!(r.frames[static_cast<std::size_t>(f)] ==
            reference_frame(*scene, cfg, f))) {
        rep.fail_check(label + ": frame " + std::to_string(f) +
                       " differs from the serial reference composition");
        ok = false;
      }
    }
    if (opt.inject_failure && rep.attempted == 1) {
      rep.fail_check("injected check failure");
      ok = false;
    }
    Digest d;
    d.run(r);
    if (first_digest[which].empty()) {
      first_digest[which] = d.hex();
      first[which] = std::move(r);
    } else if (d.hex() != first_digest[which]) {
      rep.fail_check(label + ": digest " + d.hex() +
                     " differs from the first film's " + first_digest[which]);
      ok = false;
    }
    if (!ok) ++rep.failed;
  };

  const bool traced = spans.enabled();
  if (traced) {
    spans.set_enabled(false);
    run_rounds(opt.seconds / 2, film);
    spans.set_enabled(true);
    run_rounds(opt.seconds / 2, film);
  } else {
    // Whole pairs, so both configs weigh equally in the medians.
    run_rounds(opt.seconds, [&] {
      film();
      film();
    });
  }
  set_e2e_metrics(ops, setup_s, self_peak_rss_mb(), rep);
  Digest d;
  for (const RunResult& r : first) d.run(r);
  rep.digest = d.hex();

  spans.set_enabled(false);
  check_table1(opt, build_paper_world(opt, 7, spans), rep);
  spans.set_enabled(traced);

  if (traced) {
    replay_pixel_work(*scene, cfgs[0], spans, rep);
    const double frame_ms = median(untraced_ms) / kFilmFrames;
    double pixel_ms = spans.total_ms("render.strip") / kFilmFrames;
    for (const char* name : {"sepia", "blur", "scratch", "flicker", "vflip"}) {
      pixel_ms += rep.metrics[std::string("filters.") + name + "_ms"].value;
    }
    rep.set("walkthrough.functional_frame_ms", frame_ms, "ms");
    rep.set("walkthrough.functional_other_ms", frame_ms - pixel_ms, "ms");
    set_scene_metrics(spans, *scene, rep);
    // Every set-up repeat built the same trace.
    const std::size_t builds =
        spans.durations_ms("workload.trace_build").size();
    set_trace_metrics(
        spans,
        std::vector<double>(builds, strip_loads(kFilmFrames, kPipelines)),
        rep);
    set_model_metrics(first, rep);
    set_overhead_metric(untraced_ms, traced_ms, rep);
  }
  return rep;
}

}  // namespace perfbench
