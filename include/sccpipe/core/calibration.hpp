#pragma once

/// \file calibration.hpp
/// Every tunable constant of the timing model in one place, each with its
/// paper-derived provenance. The model is calibrated against the published
/// aggregate numbers and then *run*; per-experiment results are emergent.
///
/// Anchor points from the paper (400 frames, 400x400 RGBA frames):
///   * whole pipeline on one core: 382 s  -> 955 ms/frame      (§VI-A)
///   * render + transfer only: 104 s; render only: 94 s        (§VI-A)
///     -> render 235 ms/frame, transfer (UDP send) ~25 ms/frame
///   * blur is the most expensive filter stage (§IV, §VI-D)
///   * single pipeline, MCPC renderer: 231..236 s -> blur-bound
///     period ~580 ms -> blur ~540 ms/frame on the whole image
///   * connect stage flattens the MCPC scenario at ~50..55 s for
///     k >= 4 -> UDP receive of a 640 KB frame ~120 ms on a P54C
///   * Fig. 15 idle times (7 pipelines): blur waits ~58 ms,
///     scratch ~133 ms -> per-strip blur ~77 ms busy, scratch ~2 ms
///   * Fig. 16: blur core 533 -> 800 MHz cuts 236 s to 174 s (-26 %),
///     reproduced by the compute/memory cost split, not by a constant.

namespace sccpipe {

struct Calibration {
  // ---- frame geometry ---------------------------------------------------
  int image_side = 400;  ///< paper's largest/default size (Fig. 12)

  // ---- filter stages: P54C reference cycles -----------------------------
  // cycles_per_pixel anchored to the Fig. 8 stage breakdown at 533 MHz:
  // sepia ~60 ms, blur ~525 ms, scratch ~8 ms, flicker ~38 ms, swap ~50 ms
  // per 160k-pixel frame.
  double sepia_cycles_per_pixel = 200.0;
  double blur_cycles_per_pixel = 1750.0;
  double scratch_cycles_per_pixel = 10.0;
  double scratch_base_cycles = 2.0e6;
  double flicker_cycles_per_pixel = 126.0;
  double swap_cycles_per_pixel = 166.0;
  /// DRAM bytes moved per strip byte by a filter pass: read the input once,
  /// write-allocate + write-back the output. The filters' reuse windows
  /// (a few rows) stay in the core's caches, so there is no L2 term and no
  /// cliff when a strip outgrows L2 (Fig. 12).
  double filter_traffic_factor = 3.0;

  // ---- render stage ------------------------------------------------------
  // 235 ms/frame total at 533 MHz, split ~70 ms octree cull (latency-bound
  // dependent loads; §IV "the octree is traversed, causing significant
  // memory accesses") + ~165 ms transform/raster (compute-bound).
  double cull_accesses_per_node = 40.0;
  double cull_accesses_per_tri = 40.0;
  double raster_setup_cycles_per_tri = 4000.0;
  double raster_fill_cycles_per_pixel = 150.0;
  /// Frame-buffer write traffic per rendered pixel (write-allocate +
  /// write-back on the touched texels).
  double render_traffic_per_pixel = 6.0;
  /// Extra per-frame cycles in the renderer-per-pipeline scenario to adjust
  /// the strip view frustum (§V: "additional computation is necessary").
  double frustum_adjust_cycles = 3.0e6;

  // ---- transfer / connect stages ----------------------------------------
  /// Assembling k strips into the final frame: one read + one write pass.
  double assemble_traffic_factor = 2.0;
  double assemble_cycles_per_byte = 1.0;

  // ---- random stage parameters -------------------------------------------
  int max_scratches = 12;

  static Calibration defaults() { return {}; }
  bool operator==(const Calibration&) const = default;
};

}  // namespace sccpipe
