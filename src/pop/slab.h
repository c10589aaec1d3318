// Spill storage for evicted worker states.
//
// When a sampled cohort rotates, the workers leaving the cohort serialize
// their mutable state (momentum vectors, interval accumulators, algorithm
// extras, batch-stream checkpoints) into the slab; a worker re-entering a
// later cohort restores the exact bytes and resumes bit-identically. Two
// backends:
//
//   * kMemory — an id-keyed blob map. Fast; bounded by the number of
//     DISTINCT workers ever sampled (not the population — never-sampled
//     workers cost nothing).
//   * kFile   — append-only spill file with an in-memory (id → offset,
//     length) index. A revisited worker's new spill appends and the index
//     moves on, so the file grows monotonically; peak_bytes reports the
//     high-water mark for the memory/telemetry study (EXPERIMENTS.md E18).
//
// I/O model (both backends keep the same contract). put() takes one
// turnover's spills at once: the file backend lays the blobs out back to
// back in argument order after the current end of file and hands them to
// the kernel as one gathered write (pwritev, resumed after short writes),
// so a turnover costs a handful of syscalls instead of one seek, write and
// flush per blob. get() is const and reads one blob with pread, so the
// cohort store fetches returnees from its parallel restore tasks: any
// number of gets may run concurrently, but not concurrently with put() or
// clear(). A blob that cannot be read in full (say, a truncated spill file)
// fails an HFL_CHECK; nothing decodes a partial blob.
//
// The slab is a dumb byte store: serialization lives in cohort_store.cpp,
// telemetry (pop.slab.* gauges) is updated by the owner from the byte
// counters here.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace hfl::pop {

struct SlabConfig {
  enum class Backend { kMemory, kFile };
  Backend backend = Backend::kMemory;
  // kFile only: spill-file path (created/truncated on first use).
  std::string path = "hfl_pop_slab.bin";
};

class Slab {
 public:
  explicit Slab(SlabConfig cfg);

  // Drop every blob (a new run starts with an empty slab). Byte counters
  // reset; the file backend truncates.
  void clear();

  bool contains(std::uint32_t id) const {
    return index_.find(id) != index_.end();
  }

  // Store blobs[i] for ids[i], replacing any previous spill of the same
  // worker. The ids must be distinct.
  void put(std::span<const std::uint32_t> ids,
           std::span<const std::vector<char>> blobs);

  // Length of `id`'s blob. The id must be present.
  std::uint64_t length(std::uint32_t id) const;

  // Fetch `id`'s blob into `out`. The id must be present. Safe to call
  // concurrently (see the I/O model above).
  void get(std::uint32_t id, std::vector<char>& out) const;

  std::size_t num_entries() const { return index_.size(); }
  std::uint64_t bytes_written() const { return bytes_written_; }
  // Current live footprint: blob bytes (memory) or file size (file).
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t peak_bytes() const { return peak_bytes_; }

 private:
  struct Extent {
    std::uint64_t offset = 0;  // kFile only
    std::uint64_t length = 0;
  };

  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  const Extent& extent(std::uint32_t id) const;
  void open_file();

  SlabConfig cfg_;
  std::unordered_map<std::uint32_t, Extent> index_;
  // kMemory: one owned blob per spilled worker (replacement frees the old
  // bytes, so `bytes()` is the live footprint).
  std::unordered_map<std::uint32_t, std::vector<char>> blobs_;
  // kFile: the spill file, accessed only through its descriptor
  // (pwritev/pread), never through stdio buffers.
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<iovec> iov_;  // kFile: put()'s gather list, reused
  std::uint64_t file_end_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t peak_bytes_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace hfl::pop
