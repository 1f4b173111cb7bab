// Reproduces the paper's §6 evaluation, Figures 4-8: SP-Cube against
// Pig's MR-Cube and Hive (naive Algorithm 1 as an extra reference series).
// One figure per run:
//
//   bench_paper --figure=N [--scale=F] [--threads=T] [--emit-json=PATH]
//
// Every figure has three panels: (a) total running time over the sweep,
// then (b) and (c), which the table below picks per figure from average
// reduce time, average map time, intermediate data size and SP-Sketch size.
// Sizes are scaled from the paper's 300M-row cluster runs down to a
// single-host simulation; shapes, not absolute seconds, are the target.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "relation/generators.h"

using namespace spcube;
namespace bench = spcube::bench;

namespace {

/// What one panel of a figure plots.
enum class Panel {
  kTotalTime,    // simulated total running time per algorithm
  kReduceTime,   // average reduce time per algorithm
  kMapTime,      // average map time per algorithm
  kDataSize,     // intermediate data shipped to reducers per algorithm
  kSketchInput,  // SP-Sketch bytes against input bytes
  kSketchSkews,  // SP-Sketch bytes and the skewed groups it names
};

struct PanelSpec {
  Panel kind;
  const char* title;  // after "Figure N(x): "
};

/// Panel (a) of every figure.
constexpr PanelSpec kTotalPanel = {Panel::kTotalTime,
                                   "total running time (simulated s)"};

/// One figure of the paper. The sweep is `tuples` x `skews`: a size sweep
/// lists several tuple counts, a skewness sweep several p values. A
/// single fixed value on the other axis is recorded as a JSON param;
/// generators without p leave `skews` empty.
struct Figure {
  int number;
  const char* dataset;
  Relation (*generate)(int64_t n, double p);
  int k;
  std::vector<int64_t> tuples;  // before --scale
  std::vector<double> skews;
  PanelSpec b;
  PanelSpec c;
  const char* shape;
};

const std::vector<Figure>& Figures() {
  static const std::vector<Figure> figures = {
      // Wikipedia Statistics: the wiki-like stand-in of DESIGN.md, 4 dims
      // with three heavy patterns at 30%/10%/5% of the rows (~50 skewed
      // c-groups at 5-30% of n, the paper's fingerprint).
      {4, "Wikipedia-like traffic dataset",
       [](int64_t n, double) { return GenWikiLike(n, /*seed=*/1204); },
       16,
       {25000, 50000, 100000, 200000},
       {},
       {Panel::kReduceTime, "average reduce time (s)"},
       {Panel::kDataSize, "intermediate data shipped to reducers"},
       "SP-Cube fastest (Hive ~1.2x, Pig ~3-4x slower at the largest "
       "size); SP-Cube's intermediate data ~5-6x smaller than Pig/Hive."},
      // USAGOV: 15 dims with two heavy patterns (25%/8% of rows); as in
      // the paper, the cube is computed over 4 of the 15 attributes.
      {5, "USAGOV-like click log (15 dims, cube over 4)",
       [](int64_t n, double) {
         return ProjectDims(GenUsaGovLike(n, /*seed=*/1205), {0, 1, 2, 3});
       },
       16,
       {12500, 25000, 50000, 100000},
       {},
       {Panel::kMapTime, "average map time (s)"},
       {Panel::kSketchInput, "SP-Sketch size"},
       "SP-Cube fastest (30% over Pig, ~3x over Hive, whose map time "
       "dominates); sketch grows slowly and stays orders of magnitude below "
       "the input size."},
      // gen-binomial, varying skewness: with probability p a tuple is one
      // of 20 fixed heavy patterns, otherwise uniform 32-bit attributes.
      // k=50 keeps m = n/k small so the 20 heavy groups are skewed. The
      // paper's Hive OOMs for p >= 0.4; our surrogate spills instead
      // (DESIGN.md, EXPERIMENTS.md).
      {6, "gen-binomial",
       [](int64_t n, double p) { return GenBinomial(n, 4, p, /*seed=*/1206); },
       50,
       {100000},
       {0.0, 0.1, 0.25, 0.4, 0.6, 0.75},
       {Panel::kDataSize, "intermediate data size"},
       {Panel::kSketchSkews, "SP-Sketch size"},
       "SP-Cube flat across p; Pig degrades by ~2x as p grows from 0 to "
       "0.75; intermediate data shrinks with p for SP-Cube and Pig; paper's "
       "Hive OOMs for p >= 0.4 (our surrogate degrades to spilling "
       "instead)."},
      // gen-zipf: two attributes ~ Zipf(1000, 1.1), two uniform over 1000
      // values: groups of wildly varying sizes in every cuboid.
      {7, "gen-zipf (2 x Zipf(1000,1.1) + 2 x uniform)",
       [](int64_t n, double) { return GenZipfPaper(n, /*seed=*/1207); },
       16,
       {12500, 25000, 50000, 100000},
       {},
       {Panel::kReduceTime, "average reduce time (s)"},
       {Panel::kDataSize, "intermediate data size"},
       "SP-Cube ~2x faster than Hive and ~2.5x faster than Pig at scale; "
       "the win is driven by a 4-6x smaller map output (panel c), while "
       "reduce times are comparable (panel b)."},
      // Appendix: gen-binomial at p = 0.1, varying data size, on the
      // Figure 6 cluster shape.
      {8, "gen-binomial, p=0.1, varying data size",
       [](int64_t n, double p) { return GenBinomial(n, 4, p, /*seed=*/1208); },
       50,
       {12500, 25000, 50000, 100000, 200000},
       {0.1},
       {Panel::kMapTime, "average map time (s)"},
       {Panel::kDataSize, "intermediate data size"},
       "gaps grow with data size; at the largest size SP-Cube is ~2x faster "
       "than Hive and ~3x faster than Pig, with correspondingly smaller map "
       "output and shorter map times."},
  };
  return figures;
}

/// The figure named by "--figure=N", or nullptr when absent or unknown.
const Figure* ParseFigure(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--figure=", 9) != 0) continue;
    const char* text = argv[i] + 9;
    const char* end = text + std::strlen(text);
    int number = 0;
    const auto [ptr, ec] = std::from_chars(text, end, number);
    if (ec != std::errc() || ptr != end) return nullptr;
    for (const Figure& figure : Figures()) {
      if (figure.number == number) return &figure;
    }
    return nullptr;
  }
  return nullptr;
}

bench::SeriesTable MakePanel(const Figure& figure, char panel,
                             const PanelSpec& spec, const char* x_label) {
  std::vector<std::string> columns = {"sp-cube", "mr-cube(pig)", "hive",
                                      "naive"};
  if (spec.kind == Panel::kSketchInput) {
    columns = {"sketch-bytes", "input-bytes", "ratio"};
  } else if (spec.kind == Panel::kSketchSkews) {
    columns = {"sketch-bytes", "skewed-groups"};
  }
  return bench::SeriesTable("Figure " + std::to_string(figure.number) + "(" +
                                panel + "): " + spec.title,
                            x_label, columns);
}

/// The panel's cells at one sweep point.
std::vector<std::string> PanelCells(
    Panel kind, const Relation& rel,
    const std::vector<bench::AlgoResult>& results) {
  if (kind == Panel::kSketchInput || kind == Panel::kSketchSkews) {
    int64_t sketch_bytes = 0;  // stays 0 when SP-Cube failed
    int64_t sketch_skews = 0;
    for (const bench::AlgoResult& r : results) {
      if (!r.failed && r.sketch_bytes > 0) {
        sketch_bytes = r.sketch_bytes;
        sketch_skews = r.sketch_skews;
      }
    }
    if (kind == Panel::kSketchSkews) {
      return {bench::FormatBytes(sketch_bytes),
              bench::FormatCount(sketch_skews)};
    }
    const int64_t input_bytes = rel.ByteSize();
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "1:%lld",
                  static_cast<long long>(
                      sketch_bytes > 0 ? input_bytes / sketch_bytes : 0));
    return {bench::FormatBytes(sketch_bytes), bench::FormatBytes(input_bytes),
            ratio};
  }
  std::vector<std::string> cells;
  for (const bench::AlgoResult& r : results) {
    if (r.failed) {
      cells.push_back("FAIL");
    } else if (kind == Panel::kTotalTime) {
      cells.push_back(bench::FormatSeconds(r.total_seconds));
    } else if (kind == Panel::kReduceTime) {
      cells.push_back(bench::FormatSeconds(r.reduce_avg_seconds));
    } else if (kind == Panel::kMapTime) {
      cells.push_back(bench::FormatSeconds(r.map_avg_seconds));
    } else {
      cells.push_back(bench::FormatBytes(r.shuffle_bytes));
    }
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const Figure* figure = ParseFigure(argc, argv);
  if (figure == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_paper --figure=N [--scale=F] [--threads=T] "
                 "[--emit-json=PATH]\n"
                 "  N is the paper's figure, 4-8\n");
    return 2;
  }
  const double scale = bench::ParseScale(argc, argv);
  const int threads = bench::ParseThreads(argc, argv);
  const std::string json_path = bench::ParseEmitJsonPath(argc, argv);
  const bool sweep_skew = figure->skews.size() > 1;
  const char* x_label = sweep_skew ? "skewness p" : "tuples";
  std::vector<int64_t> sizes;
  for (const int64_t n : figure->tuples) {
    sizes.push_back(bench::Scaled(n, scale));
  }
  const std::vector<double> skews =
      figure->skews.empty() ? std::vector<double>{0.0} : figure->skews;

  if (sweep_skew) {
    std::printf(
        "Figure %d | %s, n=%lld fixed, varying skewness | k=%d | "
        "%d host threads\n",
        figure->number, figure->dataset, static_cast<long long>(sizes[0]),
        figure->k, threads);
  } else {
    std::printf("Figure %d | %s | k=%d | %d host threads\n", figure->number,
                figure->dataset, figure->k, threads);
  }

  bench::BenchJson json("bench_paper");
  json.AddParam("figure", static_cast<int64_t>(figure->number));
  json.AddParam("scale", scale);
  json.AddParam("threads", static_cast<int64_t>(threads));
  json.AddParam("k", static_cast<int64_t>(figure->k));
  if (sizes.size() == 1) json.AddParam("tuples", sizes[0]);
  if (figure->skews.size() == 1) json.AddParam("p", figure->skews[0]);

  const PanelSpec specs[] = {kTotalPanel, figure->b, figure->c};
  std::vector<bench::SeriesTable> panels;
  for (int i = 0; i < 3; ++i) {
    panels.push_back(MakePanel(*figure, "abc"[i], specs[i], x_label));
  }

  bench::FailureAudit audit;
  for (const int64_t n : sizes) {
    for (const double p : skews) {
      const Relation rel = figure->generate(n, p);
      const std::vector<bench::AlgoResult> results =
          bench::RunCompetitors(rel, figure->k, threads);
      audit.NoteAll(results);
      char p_text[16];
      std::snprintf(p_text, sizeof(p_text), "%.2f", p);
      const std::string x =
          sweep_skew ? std::string(p_text) : bench::FormatCount(n);
      const std::string row_suffix =
          sweep_skew ? std::string("/p=") + p_text : "/n=" + std::to_string(n);
      for (const bench::AlgoResult& r : results) {
        json.AddResult(r.algorithm + row_suffix, r);
      }
      for (int i = 0; i < 3; ++i) {
        panels[i].AddRow(x, PanelCells(specs[i].kind, rel, results));
      }
    }
  }

  for (const bench::SeriesTable& panel : panels) panel.Print();
  std::printf("\nPaper shape to match: %s\n", figure->shape);
  if (!json.WriteTo(json_path)) return 1;
  return audit.ExitCode();
}
