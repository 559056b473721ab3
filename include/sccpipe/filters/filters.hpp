#pragma once

/// \file filters.hpp
/// The five image-manipulation stages of the silent-film pipeline,
/// implemented exactly as §IV describes them. Each filter operates on a
/// strip independently — the property the parallelisation relies on — with
/// one documented exception: the blur reads one row of context beyond each
/// strip edge, so strip-wise blurring differs from whole-frame blurring on
/// the seam rows (the paper's pipelines accept the same seam).

#include "sccpipe/filters/image.hpp"
#include "sccpipe/support/rng.hpp"

namespace sccpipe {

/// Sepia tone (SeS): per-pixel recolouring,
///   mix    = clamp(0.3 r + 0.59 g + 0.11 b)
///   rgb'   = clamp(S1 (1 - mix) + S2 mix),  S1=(0.2,0.05,0), S2=(1,0.9,0.5)
void apply_sepia(Image& img);

/// Box blur (BS): each pixel becomes the average of its 3x3 neighbourhood
/// (clamped at borders). Works from the original data through a second
/// buffer, as the paper requires.
void apply_blur(Image& img);

/// Parameters of the scratch stage for one frame, drawn up-front so a
/// frame's look is reproducible regardless of strip decomposition.
struct ScratchParams {
  int count = 0;
  Color color;
  std::vector<int> columns;

  /// Paper §IV: "two random numbers are chosen: one for the number of
  /// scratches and another one for scratch color. Next, for each scratch,
  /// an x-coordinate is randomly chosen."
  static ScratchParams draw(Rng& rng, int image_width, int max_scratches = 12);
};

/// Scratch stage (ScS): vertical scratches at the drawn columns, full
/// height of the given image/strip.
void apply_scratches(Image& img, const ScratchParams& params);

/// Flicker parameters for one frame: brightness delta in [-1/10, 1/10].
struct FlickerParams {
  float delta = 0.0f;
  static FlickerParams draw(Rng& rng);
};

/// Flicker stage (FS): adds delta to every pixel's RGB, clamped to [0,1].
void apply_flicker(Image& img, FlickerParams params);

/// Swap stage (SwS): vertical mirror via an intermediate line buffer —
/// included by the paper purely to add another memory access pattern.
void apply_vflip(Image& img);

/// Frame-deterministic parameter draws: every strip of frame \p frame gets
/// identical scratch columns / flicker delta no matter how the frame is
/// decomposed, so pipeline output is independent of the pipeline count.
ScratchParams scratch_params_for_frame(std::uint64_t seed, int frame,
                                       int image_width,
                                       int max_scratches = 12);
/// scratch_params_for_frame(seed, frame, w, max_scratches).count for any
/// width w, without drawing the columns: the timed filter stage needs only
/// the count.
int scratch_count_for_frame(std::uint64_t seed, int frame,
                            int max_scratches = 12);
FlickerParams flicker_params_for_frame(std::uint64_t seed, int frame);

/// Extension the paper sketches (§IV, Scratch stage: "the system can be
/// easily extended to allow scratches of arbitrary orientation and
/// length"): line-segment scratches in full-frame coordinates. A strip
/// applies only the portion of each segment that crosses its rows, so the
/// decomposition-invariance property is preserved.
struct OrientedScratch {
  float x0 = 0.0f, y0 = 0.0f;  ///< start, full-frame pixel coordinates
  float x1 = 0.0f, y1 = 0.0f;  ///< end
  Color color;
};

struct OrientedScratchParams {
  std::vector<OrientedScratch> scratches;

  /// Random segments: count in [0, max_scratches], arbitrary direction,
  /// length up to half the frame diagonal, one shade per frame.
  static OrientedScratchParams draw(Rng& rng, int width, int height,
                                    int max_scratches = 8);
};

OrientedScratchParams oriented_scratch_params_for_frame(std::uint64_t seed,
                                                        int frame, int width,
                                                        int height,
                                                        int max_scratches = 8);

/// Apply to a strip: \p img holds rows [strip_y0, strip_y0 + img.height())
/// of the full frame. Pass strip_y0 = 0 for whole-frame images.
void apply_oriented_scratches(Image& img, const OrientedScratchParams& params,
                              int strip_y0 = 0);

}  // namespace sccpipe
