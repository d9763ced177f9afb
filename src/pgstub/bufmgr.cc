#include "pgstub/bufmgr.h"

#include <cstring>

#include "common/check.h"
#include "obs/metrics.h"

namespace vecdb::pgstub {

BufferManager::BufferManager(StorageManager* smgr, size_t pool_pages)
    : smgr_(smgr),
      num_frames_(pool_pages),
      page_size_(smgr->page_size()),
      descs_(pool_pages),
      pool_(pool_pages * smgr->page_size()) {
  for (Partition& part : partitions_) {
    part.table.reserve(pool_pages * 2 / kNumPartitions + 1);
  }
}

BufferManager::AllPartitionsLock::AllPartitionsLock(const BufferManager& pool)
    : pool_(pool) {
  for (const Partition& part : pool_.partitions_) part.mu.Lock();
}

BufferManager::AllPartitionsLock::~AllPartitionsLock() {
  for (size_t i = kNumPartitions; i-- > 0;) pool_.partitions_[i].mu.Unlock();
}

int32_t BufferManager::LookupAndPin(Partition& part, uint64_t key) {
  ReaderMutexLock lock(part.mu);
  auto it = part.table.find(key);
  if (it == part.table.end()) return -1;
  // Eviction needs this partition exclusively, so the frame stays mapped
  // (and its tag stable) until the increment below lands.
  std::atomic<uint32_t>& state = descs_[it->second].state;
  uint32_t old = state.load(std::memory_order_relaxed);
  uint32_t next;
  do {
    next = old + kRefOne;
    if (Usage(old) < kMaxUsage) next += kUsageOne;
  } while (!state.compare_exchange_weak(old, next, std::memory_order_acquire,
                                        std::memory_order_relaxed));
  return it->second;
}

void BufferManager::InstallFrame(int32_t frame, RelId rel, BlockId block,
                                 uint32_t state) {
  BufferDesc& desc = descs_[frame];
  desc.rel = rel;
  desc.block = block;
  desc.state.store(state, std::memory_order_relaxed);
  Partition& part = PartitionFor(TagKey(rel, block));
  WriterMutexLock lock(part.mu);
  part.table.emplace(TagKey(rel, block), frame);
}

Result<int32_t> BufferManager::AllocFrame() {
  // Clock sweep: each frame gets `usage` extra chances, so a full victim
  // search can need (max usage + 1) rotations. Fail only once an entire
  // rotation encounters nothing but pinned frames.
  const size_t n = num_frames_;
  size_t pinned_streak = 0;
  for (size_t step = 0; step < 8 * n; ++step) {
    const size_t frame_idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    BufferDesc& desc = descs_[frame_idx];
    // Acquire: pairs with the last Unpin's release, so its page writes
    // and dirty flag are visible before the page is written back.
    const uint32_t seen = desc.state.load(std::memory_order_acquire);
    if ((seen & kValid) == 0) return static_cast<int32_t>(frame_idx);
    if (RefCount(seen) > 0) {
      if (++pinned_streak >= n) break;
      continue;
    }
    pinned_streak = 0;
    if (Usage(seen) > 0) {
      // Only the sweeper lowers usage, so it cannot underflow; concurrent
      // pins only raise it.
      desc.state.fetch_sub(kUsageOne, std::memory_order_relaxed);
      continue;
    }
    // Victim. WAL-before-data: the page's full-page image, logged by its
    // dirty Unpin before the pin was released, must be durable before the
    // page overwrites its on-disk predecessor.
    WalManager* wal = wal_.load(std::memory_order_acquire);
    if ((seen & kDirty) != 0 && wal != nullptr) {
      VECDB_RETURN_NOT_OK(wal->Flush());
    }
    Partition& part = PartitionFor(TagKey(desc.rel, desc.block));
    WriterMutexLock lock(part.mu);
    // Any pin since `seen` raised usage above 0, so an unchanged word
    // means nobody touched the frame; with the partition held, nobody can.
    if (desc.state.load(std::memory_order_acquire) != seen) continue;
    if ((seen & kDirty) != 0) {
      VECDB_RETURN_NOT_OK(smgr_->WriteBlock(
          desc.rel, desc.block, FrameData(static_cast<int32_t>(frame_idx))));
    }
    part.table.erase(TagKey(desc.rel, desc.block));
    desc.state.store(0, std::memory_order_relaxed);
    part.counters.evictions.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Global().Add(obs::Counter::kBufmgrEviction);
    return static_cast<int32_t>(frame_idx);
  }
  return Status::ResourceExhausted("buffer pool: all frames pinned");
}

Result<BufferHandle> BufferManager::Pin(RelId rel, BlockId block) {
  const uint64_t key = TagKey(rel, block);
  Partition& part = PartitionFor(key);
  PartitionCounters& counters = part.counters;
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.Add(obs::Counter::kBufmgrPin);
  auto hit = [&](int32_t frame) {
    counters.hits.fetch_add(1, std::memory_order_relaxed);
    metrics.Add(obs::Counter::kBufmgrHit);
    return BufferHandle{frame, FrameData(frame)};
  };
  if (const int32_t frame = LookupAndPin(part, key); frame >= 0) {
    return hit(frame);
  }
  MutexLock alloc(alloc_mu_);
  // Another miss on the same page may have loaded it while this one
  // waited; mappings only change under alloc_mu_, so this re-check is
  // final and the page is read from disk once.
  if (const int32_t frame = LookupAndPin(part, key); frame >= 0) {
    return hit(frame);
  }
  counters.misses.fetch_add(1, std::memory_order_relaxed);
  metrics.Add(obs::Counter::kBufmgrMiss);
  VECDB_ASSIGN_OR_RETURN(int32_t frame, AllocFrame());
  VECDB_RETURN_NOT_OK(smgr_->ReadBlock(rel, block, FrameData(frame)));
  InstallFrame(frame, rel, block, kValid | kRefOne | kUsageOne);
  return BufferHandle{frame, FrameData(frame)};
}

Result<std::pair<BlockId, BufferHandle>> BufferManager::NewPage(RelId rel) {
  MutexLock alloc(alloc_mu_);
  VECDB_ASSIGN_OR_RETURN(BlockId block, smgr_->ExtendRelation(rel));
  VECDB_ASSIGN_OR_RETURN(int32_t frame, AllocFrame());
  char* data = FrameData(frame);
  std::memset(data, 0, page_size_);
  InstallFrame(frame, rel, block, kValid | kDirty | kRefOne | kUsageOne);
  PartitionFor(TagKey(rel, block))
      .counters.new_pages.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Global().Add(obs::Counter::kBufmgrPin);
  return std::make_pair(block, BufferHandle{frame, data});
}

void BufferManager::Unpin(const BufferHandle& handle, bool dirty) {
  if (!handle.valid()) return;
  BufferDesc& desc = descs_[handle.frame];
  if (dirty) {
    // Dirty flag and FPI first, release second: see the header comment.
    desc.state.fetch_or(kDirty, std::memory_order_relaxed);
    if (WalManager* wal = wal_.load(std::memory_order_acquire)) {
      auto logged =
          wal->LogFullPage(desc.rel, desc.block, handle.data, page_size_);
      if (!logged.ok()) {
        MutexLock lock(wal_error_mu_);
        if (wal_error_.ok()) wal_error_ = logged.status();
      }
    }
  }
  // Release: the holder's page writes happen-before whoever next sees the
  // frame unpinned.
  const uint32_t old =
      desc.state.fetch_sub(kRefOne, std::memory_order_release);
  // An unpin without a matching pin is a caller bug that would let the
  // frame be evicted while a stale handle still points at it.
  VECDB_DCHECK_GT(RefCount(old), 0u)
      << "Unpin of frame " << handle.frame << " that is not pinned";
}

void BufferManager::CheckInvariants() const {
  // Holding alloc_mu_ freezes the mapping, every tag and every valid bit;
  // only refcount, usage and dirty still move (pins and unpins).
  MutexLock alloc(alloc_mu_);
  size_t valid_frames = 0;
  for (size_t i = 0; i < num_frames_; ++i) {
    const BufferDesc& desc = descs_[i];
    const uint32_t state = desc.state.load(std::memory_order_acquire);
    if ((state & kValid) == 0) {
      VECDB_CHECK_EQ(RefCount(state), 0u) << "invalid frame " << i
                                          << " is pinned";
      continue;
    }
    ++valid_frames;
    VECDB_CHECK_LT(RefCount(state), kRefMask)
        << "frame " << i << " pin count underflow";
    VECDB_CHECK_LE(Usage(state), kMaxUsage)
        << "frame " << i << " usage above clock-sweep cap";
    const uint64_t key = TagKey(desc.rel, desc.block);
    const Partition& part = PartitionFor(key);
    ReaderMutexLock lock(part.mu);
    auto it = part.table.find(key);
    VECDB_CHECK(it != part.table.end())
        << "valid frame " << i << " missing from tag table";
    VECDB_CHECK_EQ(it->second, static_cast<int32_t>(i))
        << "tag table maps (" << desc.rel << "," << desc.block
        << ") to a different frame";
  }
  // Every mapping must point back at a valid frame with the same tag and
  // sit in its tag's partition, so the table sizes sum to the valid-frame
  // count exactly.
  size_t mapped = 0;
  for (const Partition& part : partitions_) {
    ReaderMutexLock lock(part.mu);
    for (const auto& [key, frame] : part.table) {
      VECDB_CHECK(&PartitionFor(key) == &part)
          << "tag " << key << " filed under the wrong partition";
    }
    mapped += part.table.size();
  }
  VECDB_CHECK_EQ(mapped, valid_frames)
      << "tag table and frame validity disagree";
}

Status BufferManager::FlushAll() {
  MutexLock alloc(alloc_mu_);
  // With every partition held no frame can gain a pin, so a frame seen
  // unpinned below stays unpinned, and its bytes and dirty flag stay put.
  AllPartitionsLock all(*this);
  // Page contents are only stable while a frame is unpinned (pin holders
  // mutate bytes outside the locks), so flushing a pinned-dirty frame
  // would write a torn image — and a checkpoint right after would rotate
  // away the WAL record that could repair it. Refuse up front; the caller
  // retries once the pin drains.
  std::vector<int32_t> to_write;
  for (size_t i = 0; i < num_frames_; ++i) {
    const BufferDesc& desc = descs_[i];
    const uint32_t state = desc.state.load(std::memory_order_acquire);
    if ((state & kValid) == 0 || (state & kDirty) == 0) continue;
    if (RefCount(state) > 0) {
      return Status::InvalidArgument(
          "dirty page pinned during flush: rel " + std::to_string(desc.rel) +
          " block " + std::to_string(desc.block));
    }
    to_write.push_back(static_cast<int32_t>(i));
  }
  // WAL-before-data, wholesale: every page about to be written had its
  // full-page image logged before its pin was released; force those out
  // before any page write can clobber its on-disk predecessor. A frame
  // still pinned above may be dirtied after this flush; it is not in
  // `to_write` and waits for the next flush.
  if (WalManager* wal = wal_.load(std::memory_order_acquire)) {
    VECDB_RETURN_NOT_OK(wal->Flush());
  }
  for (const int32_t frame : to_write) {
    BufferDesc& desc = descs_[frame];
    VECDB_RETURN_NOT_OK(
        smgr_->WriteBlock(desc.rel, desc.block, FrameData(frame)));
    desc.state.fetch_and(~kDirty, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status BufferManager::InvalidateRelation(RelId rel) {
  MutexLock alloc(alloc_mu_);
  AllPartitionsLock all(*this);
  for (const BufferDesc& desc : descs_) {
    const uint32_t state = desc.state.load(std::memory_order_acquire);
    if ((state & kValid) != 0 && desc.rel == rel && RefCount(state) > 0) {
      return Status::InvalidArgument("relation has pinned pages");
    }
  }
  for (BufferDesc& desc : descs_) {
    if ((desc.state.load(std::memory_order_relaxed) & kValid) == 0 ||
        desc.rel != rel) {
      continue;
    }
    const uint64_t key = TagKey(desc.rel, desc.block);
    PartitionFor(key).table.erase(key);
    desc.state.store(0, std::memory_order_relaxed);
  }
  return Status::OK();
}

BufferStats BufferManager::stats() const {
  BufferStats out;
  for (const Partition& part : partitions_) {
    const PartitionCounters& c = part.counters;
    out.hits += c.hits.load(std::memory_order_relaxed);
    out.misses += c.misses.load(std::memory_order_relaxed);
    out.pins += c.new_pages.load(std::memory_order_relaxed);
    out.evictions += c.evictions.load(std::memory_order_relaxed);
  }
  out.pins += out.hits + out.misses;
  return out;
}

void BufferManager::ResetStats() {
  for (Partition& part : partitions_) {
    PartitionCounters& c = part.counters;
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
    c.new_pages.store(0, std::memory_order_relaxed);
    c.evictions.store(0, std::memory_order_relaxed);
  }
}

}  // namespace vecdb::pgstub
