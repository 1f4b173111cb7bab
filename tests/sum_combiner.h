#ifndef SPCUBE_TESTS_SUM_COMBINER_H_
#define SPCUBE_TESTS_SUM_COMBINER_H_

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

#include "common/bytes.h"
#include "common/status.h"
#include "mapreduce/api.h"

namespace spcube {

/// Sums decimal-string values: the combiner of the engine, shuffle and
/// recovery tests. Parses and prints through std::from_chars and
/// std::to_chars, so a fold allocates nothing on the heap
/// (shuffle_fastpath_test counts allocations).
class SumCombiner : public Combiner {
 public:
  Status Fold(std::string_view acc, std::string_view value,
              ByteWriter* out) const override {
    int64_t a = 0;
    int64_t b = 0;
    if (!Parse(acc, &a) || !Parse(value, &b)) {
      return Status::Corruption("SumCombiner: value is not a decimal integer");
    }
    char digits[24];
    const auto printed = std::to_chars(digits, digits + sizeof(digits), a + b);
    out->PutRawBytes(std::string_view(digits, printed.ptr - digits));
    return Status::OK();
  }

 private:
  static bool Parse(std::string_view text, int64_t* out) {
    const char* end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, *out);
    return parsed.ec == std::errc() && parsed.ptr == end;
  }
};

}  // namespace spcube

#endif  // SPCUBE_TESTS_SUM_COMBINER_H_
