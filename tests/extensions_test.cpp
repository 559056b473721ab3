// Tests for the extension features: voltage-domain granularity, oriented
// scratches, flat shading, and the argument parser.

#include <gtest/gtest.h>

#include "sccpipe/filters/filters.hpp"
#include "sccpipe/render/renderer.hpp"
#include "sccpipe/scc/chip.hpp"
#include "sccpipe/scene/city.hpp"
#include "sccpipe/support/args.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {
namespace {

// ---------------------------------------------------------- voltage domains

TEST(VoltageDomains, TilesMapToQuadDomains) {
  Simulator sim;
  SccChip chip(sim);
  // 6x4 tiles -> 3x2 domains of 2x2 tiles.
  EXPECT_EQ(chip.voltage_domain_of(chip.topology().tile_at({0, 0})),
            chip.voltage_domain_of(chip.topology().tile_at({1, 1})));
  EXPECT_NE(chip.voltage_domain_of(chip.topology().tile_at({0, 0})),
            chip.voltage_domain_of(chip.topology().tile_at({2, 0})));
  EXPECT_NE(chip.voltage_domain_of(chip.topology().tile_at({0, 0})),
            chip.voltage_domain_of(chip.topology().tile_at({0, 2})));
}

TEST(VoltageDomains, PerTileVoltageStaysLocal) {
  Simulator sim;
  SccChip chip(sim);  // default: PerTile (the paper's idealisation)
  chip.set_tile_frequency(0, 800);
  EXPECT_DOUBLE_EQ(chip.operating_point(0).volts, 1.3);
  // Tile 1 shares the voltage domain but not the tile: stays at 1.1 V.
  EXPECT_DOUBLE_EQ(chip.operating_point(2).volts, 1.1);
}

TEST(VoltageDomains, QuadDomainVoltagePropagates) {
  Simulator sim;
  ChipConfig cfg = ChipConfig::scc();
  cfg.voltage_granularity = VoltageGranularity::PerQuadTileDomain;
  SccChip chip(sim, cfg);
  chip.set_tile_frequency(0, 800);  // tile (0,0)
  // Same domain: tiles (1,0), (0,1), (1,1) rise to 1.3 V though their
  // frequency stays 533 MHz.
  const CoreId c_tile10 = 2 * chip.topology().tile_at({1, 0});
  EXPECT_EQ(chip.operating_point(c_tile10).mhz, 533);
  EXPECT_DOUBLE_EQ(chip.operating_point(c_tile10).volts, 1.3);
  // Other domain untouched.
  const CoreId c_far = 2 * chip.topology().tile_at({3, 0});
  EXPECT_DOUBLE_EQ(chip.operating_point(c_far).volts, 1.1);
}

TEST(VoltageDomains, QuadDomainDvfsCostsMorePower) {
  Simulator sim_a, sim_b;
  ChipConfig real = ChipConfig::scc();
  real.voltage_granularity = VoltageGranularity::PerQuadTileDomain;
  SccChip per_tile(sim_a);
  SccChip quad(sim_b, real);
  for (CoreId c = 0; c < 8; ++c) {
    per_tile.allocate_core(c);
    quad.allocate_core(c);
  }
  const double base_a = per_tile.current_watts();
  const double base_b = quad.current_watts();
  EXPECT_DOUBLE_EQ(base_a, base_b);
  per_tile.set_tile_frequency(0, 800);
  quad.set_tile_frequency(0, 800);
  // Raising one tile costs more when the whole 2x2 domain must follow.
  EXPECT_GT(quad.current_watts() - base_b,
            per_tile.current_watts() - base_a + 1.0);
}

TEST(VoltageDomains, RevertingFrequencyRestoresVoltage) {
  Simulator sim;
  ChipConfig cfg = ChipConfig::scc();
  cfg.voltage_granularity = VoltageGranularity::PerQuadTileDomain;
  SccChip chip(sim, cfg);
  chip.set_tile_frequency(0, 800);
  chip.set_tile_frequency(0, 533);
  for (TileId t = 0; t < 4; ++t) {
    EXPECT_DOUBLE_EQ(
        chip.operating_point(2 * t).volts, 1.1);
  }
}

// -------------------------------------------------------- oriented scratches

TEST(OrientedScratch, DrawIsDeterministicAndBounded) {
  Rng a{5}, b{5};
  const auto pa = OrientedScratchParams::draw(a, 200, 100);
  const auto pb = OrientedScratchParams::draw(b, 200, 100);
  ASSERT_EQ(pa.scratches.size(), pb.scratches.size());
  for (std::size_t i = 0; i < pa.scratches.size(); ++i) {
    EXPECT_EQ(pa.scratches[i].x0, pb.scratches[i].x0);
    EXPECT_EQ(pa.scratches[i].y1, pb.scratches[i].y1);
  }
  EXPECT_LE(pa.scratches.size(), 8u);
}

TEST(OrientedScratch, PaintsALine) {
  Image img(64, 64, Color{0, 0, 0, 255});
  OrientedScratchParams p;
  p.scratches.push_back(OrientedScratch{10, 10, 50, 50, Color{200, 200, 200, 255}});
  apply_oriented_scratches(img, p);
  EXPECT_EQ(img.get(30, 30).r, 200);  // on the diagonal
  EXPECT_EQ(img.get(10, 50).r, 0);    // off the diagonal
}

TEST(OrientedScratch, StripDecompositionInvariant) {
  // The key property: applying per strip (with the strip's row offset)
  // equals applying to the whole frame.
  Image whole(80, 60, Color{30, 30, 30, 255});
  Image parts = whole;
  const OrientedScratchParams p =
      oriented_scratch_params_for_frame(99, 3, 80, 60);
  apply_oriented_scratches(whole, p);

  Image assembled(80, 60);
  for (const StripRange& s : divide_rows(60, 4)) {
    Image strip = parts.strip(s);
    apply_oriented_scratches(strip, p, s.y0);
    assembled.paste(strip, s.y0);
  }
  EXPECT_EQ(assembled, whole);
}

TEST(OrientedScratch, OffFrameSegmentsAreClipped) {
  Image img(16, 16, Color{0, 0, 0, 255});
  OrientedScratchParams p;
  p.scratches.push_back(
      OrientedScratch{-50, -50, -10, -10, Color{255, 255, 255, 255}});
  EXPECT_NO_THROW(apply_oriented_scratches(img, p));
  EXPECT_EQ(img.get(0, 0).r, 0);
}

// ----------------------------------------------------------------- lighting

TEST(Lighting, ShadedFacesDiffer) {
  CityParams cp;
  cp.blocks_x = 3;
  cp.blocks_z = 3;
  const Mesh city = generate_city(cp);
  const Octree octree(city);
  const CameraConfig cam;
  const WalkthroughPath path(city.bounds(), 10);
  LightingConfig lit;
  LightingConfig unlit;
  unlit.enabled = false;
  const Renderer shaded(city, octree, cam, 96, 96, lit);
  const Renderer flat(city, octree, cam, 96, 96, unlit);
  const Image a = shaded.render(path.view(2));
  const Image b = flat.render(path.view(2));
  EXPECT_FALSE(a == b);
}

TEST(Lighting, StripAssemblyStillExact) {
  CityParams cp;
  cp.blocks_x = 3;
  cp.blocks_z = 3;
  const Mesh city = generate_city(cp);
  const Octree octree(city);
  const Renderer renderer(city, octree, CameraConfig{}, 96, 96);
  const WalkthroughPath path(city.bounds(), 10);
  const Mat4 view = path.view(4);
  const Image whole = renderer.render(view);
  Image assembled(96, 96);
  for (const StripRange& s : divide_rows(96, 3)) {
    assembled.paste(renderer.render_strip(view, s), s.y0);
  }
  EXPECT_EQ(assembled, whole);
}

// ---------------------------------------------------------------- ArgParser

TEST(ArgParser, ParsesFlagsAndDefaults) {
  ArgParser args;
  args.add_flag("pipelines", "k", "4");
  args.add_flag("csv", "emit csv", "false");
  const char* argv[] = {"prog", "--pipelines", "7", "--csv"};
  ASSERT_TRUE(args.parse(4, argv));
  EXPECT_EQ(args.get_int("pipelines"), 7);
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_TRUE(args.has("pipelines"));
}

TEST(ArgParser, EqualsSyntaxAndPositional) {
  ArgParser args;
  args.add_flag("size", "frame side", "400");
  const char* argv[] = {"prog", "--size=200", "extra"};
  ASSERT_TRUE(args.parse(3, argv));
  EXPECT_EQ(args.get_int("size"), 200);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "extra");
}

TEST(ArgParser, UnknownFlagFails) {
  ArgParser args;
  args.add_flag("known", "");
  const char* argv[] = {"prog", "--oops", "1"};
  EXPECT_FALSE(args.parse(3, argv));
  EXPECT_NE(args.error().find("oops"), std::string::npos);
}

TEST(ArgParser, DefaultsSurviveNoArgs) {
  ArgParser args;
  args.add_flag("frames", "n", "400");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_EQ(args.get_int("frames"), 400);
  EXPECT_FALSE(args.has("frames"));
}

TEST(ArgParser, UsageListsFlags) {
  ArgParser args;
  args.add_flag("alpha", "the alpha flag", "1");
  const std::string usage = args.usage("prog");
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("the alpha flag"), std::string::npos);
}

TEST(ArgParser, DuplicateRegistrationThrows) {
  ArgParser args;
  args.add_flag("x", "");
  EXPECT_THROW(args.add_flag("x", ""), CheckError);
}

TEST(ArgParser, CheckNumericNamesTheFirstMalformedFlag) {
  ArgParser args;
  args.add_flag("frames", "n", "400");
  args.add_flag("jobs", "n", "0");
  args.add_flag("detect-ms", "ms", "25");
  const char* ok[] = {"prog", "--frames", "12", "--detect-ms=2.5"};
  ASSERT_TRUE(args.parse(4, ok));
  EXPECT_EQ(args.check_numeric({"frames", "jobs"}, {"detect-ms"}), "");

  ArgParser bad_int = args;
  const char* typo[] = {"prog", "--frames", "10x", "--jobs", "abc"};
  ASSERT_TRUE(bad_int.parse(5, typo));
  EXPECT_EQ(bad_int.check_numeric({"frames", "jobs"}, {"detect-ms"}),
            "--frames expects an integer, got '10x'");

  ArgParser bad_number = args;
  const char* nan_ms[] = {"prog", "--detect-ms", "1q"};
  ASSERT_TRUE(bad_number.parse(3, nan_ms));
  EXPECT_EQ(bad_number.check_numeric({"frames"}, {"detect-ms"}),
            "--detect-ms expects a number, got '1q'");
}

TEST(EnvCount, AcceptsOnlyDigitsWithinOneToTheCeiling) {
  int v = -7;
  EXPECT_TRUE(parse_env_count("SCCPIPE_JOBS", "4", 256, &v).ok());
  EXPECT_EQ(v, 4);
  EXPECT_TRUE(parse_env_count("SCCPIPE_JOBS", "256", 256, &v).ok());
  EXPECT_EQ(v, 256);
  for (const char* text : {"abc", "4x", "", "0", "-1", "257", " 4", "+4",
                           "99999999999999999999"}) {
    v = -7;
    const Status st = parse_env_count("SCCPIPE_JOBS", text, 256, &v);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument) << "'" << text << "'";
    EXPECT_EQ(st.message(), "SCCPIPE_JOBS must be an integer in 1..256, "
                            "got '" + std::string(text) + "'");
    EXPECT_EQ(v, -7) << "written on error for '" << text << "'";
  }
}

}  // namespace
}  // namespace sccpipe
