// Spill-codec end-to-end microbenchmarks (docs/INTERNALS.md §13): the
// legacy fixed-frame spill codec versus the delta/varint spill codec, on
// the paper's workload distributions —
//
//   spill/<dist>-groups  Sorted runs of (group key, count partial) records:
//                        the shape the naive/MR-Cube mappers and SP-Cube's
//                        skew path spill. One record per (row, cuboid) over
//                        the full 4-dim lattice, sorted by key, so hot Zipf
//                        groups produce long stretches of identical keys —
//                        the delta codec's best case and the dominant spill
//                        volume in the paper's experiments.
//   spill/<dist>-tuples  Sorted runs of (group key, full tuple) records:
//                        SP-Cube's minimal-group emissions. Values dominate
//                        the record, so the reduction is frame + key-prefix
//                        savings only.
//
// Both spill sides stream through the real SpillWriter/SpillReader; the
// race isolates the run codec: the legacy side frames and checksums every
// record individually (the seed's behavior), the delta side writes §13
// blocks — kSpillBlockRecords delta-encoded records per CRC frame — which
// is where both its byte and wall-clock wins come from. The legacy byte
// figure is LegacySpillRecordFileBytes: the 12-byte [u64 len][u32 crc]
// frame plus PutBytes(key)+PutBytes(value) — i.e. exactly what the legacy
// format put on disk for the same records.
//
// Wall-clock timing is host-side and legitimate here: two codecs race on
// identical record streams, no simulated cluster involved. Results go to
// stdout and, with --emit-json=<path>, to a JSON file matching the
// tools/validate_bench_json.py schema (…_compressed fields are checked
// against their …_uncompressed twins).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/bytes.h"
#include "cube/cuboid.h"
#include "cube/group_key.h"
#include "io/spill.h"
#include "mapreduce/shuffle.h"
#include "relation/generators.h"
#include "relation/relation.h"
#include "relation/tuple_codec.h"

using namespace spcube;
namespace bench = spcube::bench;

namespace {

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

/// Bytes of a LEB128 varint for `v`.
int64_t VarintLen(uint64_t v) {
  int64_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// On-disk bytes one record costs in the legacy spill format: an 8-byte
/// length + 4-byte CRC frame around `[varint key_len | key | varint
/// value_len | value]`.
int64_t LegacySpillRecordFileBytes(size_t key_len, size_t value_len) {
  return static_cast<int64_t>(sizeof(uint64_t) + sizeof(uint32_t)) +
         VarintLen(key_len) + static_cast<int64_t>(key_len) +
         VarintLen(value_len) + static_cast<int64_t>(value_len);
}

/// Best-of-`reps` wall milliseconds of `fn`.
template <typename Fn>
double MeasureMs(int reps, Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

struct SpillRecord {
  std::string key;
  std::string value;
};

/// One record per (row, cuboid): key = the row projected onto the cuboid,
/// value = a varint count partial (`groups`) or the encoded full tuple
/// (`!groups`). Sorted by key, as every spill run is.
std::vector<SpillRecord> MakeRecords(const Relation& rel, bool groups) {
  std::vector<SpillRecord> records;
  const int num_dims = rel.num_dims();
  const CuboidMask full = static_cast<CuboidMask>((1u << num_dims) - 1);
  ByteWriter key_writer;
  ByteWriter value_writer;
  for (int64_t i = 0; i < rel.num_rows(); ++i) {
    const Relation::RowRef row = rel.row(i);
    for (CuboidMask mask = 0; mask <= full; ++mask) {
      if (!groups && mask != full) continue;  // tuples: full-mask keys only
      const GroupKey key = GroupKey::Project(mask, row);
      key_writer.Clear();
      key.EncodeTo(key_writer);
      value_writer.Clear();
      if (groups) {
        value_writer.PutVarintSigned(1);  // a count partial
      } else {
        EncodeTupleTo(value_writer, row, rel.measure(i));
      }
      records.push_back(SpillRecord{std::string(key_writer.data()),
                                    std::string(value_writer.data())});
    }
  }
  std::sort(records.begin(), records.end(),
            [](const SpillRecord& a, const SpillRecord& b) {
              return a.key < b.key;
            });
  return records;
}

struct SpillRow {
  std::string name;
  double legacy_ms = 0;
  double delta_ms = 0;
  int64_t records = 0;
  int64_t bytes_uncompressed = 0;  // legacy on-disk bytes
  int64_t bytes_compressed = 0;    // actual delta/varint on-disk bytes
};

void Abort(const Status& status) {
  std::fprintf(stderr, "bench_compression: %s\n", status.ToString().c_str());
  std::abort();
}

/// Races the two codecs over one write+read-back pass of `records`.
SpillRow RaceSpill(const std::string& name,
                   const std::vector<SpillRecord>& records,
                   TempFileManager* temp, int reps) {
  SpillRow row;
  row.name = name;
  row.records = static_cast<int64_t>(records.size());
  for (const SpillRecord& r : records) {
    row.bytes_uncompressed +=
        LegacySpillRecordFileBytes(r.key.size(), r.value.size());
  }

  // Legacy codec: PutBytes(key) + PutBytes(value) payloads through the same
  // writer/reader. (The shared varint frame is *smaller* than the legacy
  // 12-byte frame, so this side runs slightly ahead of the historical code —
  // a win against it is conservative.)
  const std::string legacy_path = temp->NextPath();
  row.legacy_ms = MeasureMs(reps, [&] {
    SpillWriter writer(legacy_path);
    if (Status s = writer.Open(); !s.ok()) Abort(s);
    ByteWriter encoder;
    for (const SpillRecord& r : records) {
      encoder.Clear();
      encoder.PutBytes(r.key);
      encoder.PutBytes(r.value);
      if (Status s = writer.Append(encoder.data()); !s.ok()) Abort(s);
    }
    if (Status s = writer.Close(); !s.ok()) Abort(s);
    SpillReader reader(legacy_path);
    if (Status s = reader.Open(); !s.ok()) Abort(s);
    std::string raw;
    std::string_view key;
    std::string_view value;
    uint64_t sink = 0;
    for (;;) {
      Result<bool> more = reader.Next(&raw);
      if (!more.ok()) Abort(more.status());
      if (!*more) break;
      ByteReader decoder(raw);
      if (Status s = decoder.GetBytes(&key); !s.ok()) Abort(s);
      if (Status s = decoder.GetBytes(&value); !s.ok()) Abort(s);
      sink += key.size() + value.size();
    }
    if (Status s = reader.Close(); !s.ok()) Abort(s);
    g_sink = sink;
  });
  RemoveFileIfExists(legacy_path);

  // Delta/varint codec: the production block encoder/decoder — delta
  // payloads batched kSpillBlockRecords to a CRC frame (§13 run blocks).
  const std::string delta_path = temp->NextPath();
  row.delta_ms = MeasureMs(reps, [&] {
    SpillWriter writer(delta_path);
    if (Status s = writer.Open(); !s.ok()) Abort(s);
    SpillBlockEncoder encoder;
    for (const SpillRecord& r : records) {
      encoder.Add(r.key, r.value);
      if (encoder.BlockFull()) {
        if (Status s = writer.Append(encoder.block()); !s.ok()) Abort(s);
        encoder.NextBlock();
      }
    }
    if (!encoder.BlockEmpty()) {
      if (Status s = writer.Append(encoder.block()); !s.ok()) Abort(s);
      encoder.NextBlock();
    }
    if (Status s = writer.Close(); !s.ok()) Abort(s);
    row.bytes_compressed = writer.bytes_written();
    SpillReader reader(delta_path);
    if (Status s = reader.Open(); !s.ok()) Abort(s);
    SpillBlockDecoder decoder;
    std::string raw;
    std::string_view key;
    std::string_view value;
    uint64_t sink = 0;
    for (;;) {
      Result<bool> more = reader.Next(&raw);
      if (!more.ok()) Abort(more.status());
      if (!*more) break;
      decoder.SetBlock(raw);
      for (;;) {
        Result<bool> record = decoder.Next(&key, &value);
        if (!record.ok()) Abort(record.status());
        if (!*record) break;
        sink += key.size() + value.size();
      }
    }
    if (Status s = reader.Close(); !s.ok()) Abort(s);
    g_sink = sink;
  });
  RemoveFileIfExists(delta_path);
  return row;
}

double Ratio(int64_t a, int64_t b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ParseScale(argc, argv);
  const std::string json_path = bench::ParseEmitJsonPath(argc, argv);
  const int64_t n = std::max<int64_t>(bench::Scaled(50000, scale), 500);
  const int reps = 3;
  TempFileManager temp("bench_compression");

  const Relation zipf = GenZipfPaper(n, /*seed=*/1207);
  const Relation uniform =
      GenUniform(n, /*num_dims=*/4, /*domain=*/1000, /*seed=*/1209);

  std::printf("Compression benchmarks | rows=%lld, best of %d\n",
              static_cast<long long>(n), reps);
  std::printf("%-22s %12s %12s %9s %14s %14s %10s\n", "stream", "legacy-ms",
              "delta-ms", "speedup", "legacy-bytes", "delta-bytes",
              "reduction");

  std::vector<SpillRow> spill_rows;
  for (const auto& [dist, rel] :
       {std::pair<const char*, const Relation*>{"zipf", &zipf},
        std::pair<const char*, const Relation*>{"uniform", &uniform}}) {
    for (const bool groups : {true, false}) {
      const std::vector<SpillRecord> records = MakeRecords(*rel, groups);
      SpillRow row =
          RaceSpill(std::string("spill/") + dist +
                        (groups ? "-groups" : "-tuples"),
                    records, &temp, reps);
      std::printf("%-22s %12.2f %12.2f %9.2fx %14lld %14lld %9.2fx\n",
                  row.name.c_str(), row.legacy_ms, row.delta_ms,
                  row.legacy_ms / row.delta_ms,
                  static_cast<long long>(row.bytes_uncompressed),
                  static_cast<long long>(row.bytes_compressed),
                  Ratio(row.bytes_uncompressed, row.bytes_compressed));
      spill_rows.push_back(std::move(row));
    }
  }

  // The delta spill path must not lose wall-clock against the legacy codec
  // on any stream, and the headline Zipf streams must shrink >= 2x. The
  // ratio gate is scale-aware: compression ratios grow with stream length
  // (longer runs repeat more group keys), so the 2x headline is enforced
  // from half scale up while smoke runs (CI, check_all) gate at a floor
  // that still catches codec regressions.
  const bool full_scale = n >= 25000;
  const double spill_gate = full_scale ? 2.0 : 1.4;
  int exit_code = 0;
  for (const SpillRow& row : spill_rows) {
    if (row.delta_ms > row.legacy_ms) {
      std::fprintf(stderr,
                   "FAIL %s: delta codec slower than legacy (%.2f > %.2f ms)\n",
                   row.name.c_str(), row.delta_ms, row.legacy_ms);
      exit_code = 1;
    }
    if (row.bytes_compressed > row.bytes_uncompressed) {
      std::fprintf(stderr, "FAIL %s: delta run larger than legacy twin\n",
                   row.name.c_str());
      exit_code = 1;
    }
  }
  if (!spill_rows.empty() &&
      Ratio(spill_rows[0].bytes_uncompressed, spill_rows[0].bytes_compressed) <
          spill_gate) {
    std::fprintf(stderr, "FAIL %s: spill reduction below the %.1fx gate\n",
                 spill_rows[0].name.c_str(), spill_gate);
    exit_code = 1;
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"bench_compression\",\n");
    std::fprintf(out, "  \"rows\": %lld,\n", static_cast<long long>(n));
    std::fprintf(out, "  \"scale\": %g,\n", scale);
    std::fprintf(out, "  \"results\": [\n");
    bool first = true;
    for (const SpillRow& row : spill_rows) {
      std::fprintf(
          out,
          "%s    {\"name\": \"%s\", \"legacy_ms\": %.3f, \"delta_ms\": %.3f, "
          "\"speedup\": %.3f, \"records\": %lld, "
          "\"bytes_spilled_uncompressed\": %lld, "
          "\"bytes_spilled_compressed\": %lld, \"reduction\": %.3f}",
          first ? "" : ",\n", row.name.c_str(), row.legacy_ms, row.delta_ms,
          row.legacy_ms / row.delta_ms, static_cast<long long>(row.records),
          static_cast<long long>(row.bytes_uncompressed),
          static_cast<long long>(row.bytes_compressed),
          Ratio(row.bytes_uncompressed, row.bytes_compressed));
      first = false;
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf(
      "\nShape to match: the group-partial streams (naive/MR-Cube's and the "
      "skew path's spill volume) shrink >= 2x on Zipf at full scale — "
      "sorted hot groups delta to empty suffixes and one block frame "
      "replaces %d per-record 12-byte frames; tuple-value streams improve "
      "less because the shipped tuple dominates the record. The delta codec "
      "must also win wall-clock: it writes, checksums and fwrites a "
      "fraction of the legacy side's bytes and calls.\n",
      kSpillBlockRecords);
  return exit_code;
}
