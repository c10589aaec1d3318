#include "src/pop/slab.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>

#include "src/common/errors.h"

namespace hfl::pop {

Slab::Slab(SlabConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.backend == SlabConfig::Backend::kFile) {
    HFL_CHECK(!cfg_.path.empty(), "file slab needs a path");
    open_file();
  }
}

void Slab::open_file() {
  // Truncate: a slab never outlives the run that filled it.
  file_.reset(std::fopen(cfg_.path.c_str(), "w+b"));
  HFL_CHECK(file_ != nullptr, "cannot open slab spill file " + cfg_.path);
  file_end_ = 0;
}

void Slab::clear() {
  index_.clear();
  blobs_.clear();
  if (cfg_.backend == SlabConfig::Backend::kFile) open_file();
  bytes_ = 0;
  peak_bytes_ = 0;
  bytes_written_ = 0;
}

void Slab::put(std::span<const std::uint32_t> ids,
               std::span<const std::vector<char>> blobs) {
  HFL_CHECK(ids.size() == blobs.size(), "slab put: one blob per id");
  if (cfg_.backend == SlabConfig::Backend::kMemory) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::vector<char>& blob = blobs[i];
      auto& slot = blobs_[ids[i]];
      bytes_ -= slot.size();
      slot = blob;
      bytes_ += slot.size();
      index_[ids[i]] = {0, static_cast<std::uint64_t>(blob.size())};
      bytes_written_ += blob.size();
      peak_bytes_ = std::max(peak_bytes_, bytes_);
    }
    return;
  }

  // Append-only: a rewrite abandons the old extent (dead space is the cost
  // of never seeking backwards on the write path). Extents are assigned in
  // argument order, so the file layout is deterministic.
  const std::uint64_t start = file_end_;
  iov_.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::vector<char>& blob = blobs[i];
    index_[ids[i]] = {file_end_, static_cast<std::uint64_t>(blob.size())};
    file_end_ += blob.size();
    if (!blob.empty()) {
      iov_.push_back({const_cast<char*>(blob.data()), blob.size()});
    }
  }
  // One gathered write per IOV_MAX blobs; a short write resumes at the
  // first byte the kernel did not take.
  std::uint64_t offset = start;
  std::size_t first = 0;
  while (first < iov_.size()) {
    const int count = static_cast<int>(
        std::min<std::size_t>(iov_.size() - first, IOV_MAX));
    const ssize_t n = ::pwritev(::fileno(file_.get()), iov_.data() + first,
                                count, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    HFL_CHECK(n > 0, "slab spill write failed: " + cfg_.path);
    offset += static_cast<std::uint64_t>(n);
    auto left = static_cast<std::size_t>(n);
    while (left > 0 && left >= iov_[first].iov_len) {
      left -= iov_[first].iov_len;
      ++first;
    }
    if (left > 0) {
      iov_[first].iov_base = static_cast<char*>(iov_[first].iov_base) + left;
      iov_[first].iov_len -= left;
    }
  }
  bytes_written_ += file_end_ - start;
  bytes_ = file_end_;
  peak_bytes_ = std::max(peak_bytes_, bytes_);
}

const Slab::Extent& Slab::extent(std::uint32_t id) const {
  const auto it = index_.find(id);
  HFL_CHECK(it != index_.end(),
            "worker " + std::to_string(id) + " has no spilled state");
  return it->second;
}

std::uint64_t Slab::length(std::uint32_t id) const {
  return extent(id).length;
}

void Slab::get(std::uint32_t id, std::vector<char>& out) const {
  const Extent& e = extent(id);
  if (cfg_.backend == SlabConfig::Backend::kMemory) {
    const auto& blob = blobs_.at(id);
    out.assign(blob.begin(), blob.end());
    return;
  }
  out.resize(e.length);
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(::fileno(file_.get()), out.data() + done,
                              out.size() - done,
                              static_cast<off_t>(e.offset + done));
    if (n < 0 && errno == EINTR) continue;
    // 0 is end of file before the extent ends: the spill file was cut.
    HFL_CHECK(n > 0, "slab spill read failed: " + cfg_.path);
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace hfl::pop
