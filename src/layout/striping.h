// Striping and declustered-mirror placement math (§2.2, §2.3).
//
// Block b of a file starting on disk s lives on disk (s + b) mod D. Its
// mirror is split into `decluster` fragments; fragment j (0-based) lives on
// disk (primary + 1 + j) mod D. Primaries occupy the fast outer zone of each
// drive, secondaries the slow inner zone.

#ifndef SRC_LAYOUT_STRIPING_H_
#define SRC_LAYOUT_STRIPING_H_

#include <cstdint>
#include <vector>

#include "src/common/ids.h"
#include "src/disk/disk_model.h"
#include "src/layout/catalog.h"
#include "src/layout/shape.h"

namespace tiger {

struct BlockLocation {
  DiskId disk;
  DiskZone zone = DiskZone::kOuter;
  int64_t bytes = 0;
};

class StripeLayout {
 public:
  explicit StripeLayout(SystemShape shape) : shape_(shape) {
    TIGER_CHECK(shape.Valid()) << "invalid system shape";
  }

  const SystemShape& shape() const { return shape_; }

  DiskId PrimaryDisk(const FileInfo& file, int64_t block) const {
    TIGER_DCHECK(block >= 0 && block < file.block_count);
    return shape_.AdvanceDisk(file.start_disk, block);
  }

  BlockLocation PrimaryLocation(const FileInfo& file, int64_t block) const {
    return BlockLocation{PrimaryDisk(file, block), DiskZone::kOuter,
                         file.allocated_bytes_per_block};
  }

  // Size of one mirror fragment (last fragment may be logically smaller; we
  // allocate uniformly, matching Tiger's fixed-size secondary pieces).
  int64_t FragmentBytes(const FileInfo& file) const {
    return (file.allocated_bytes_per_block + shape_.decluster_factor - 1) /
           shape_.decluster_factor;
  }

  // Location of fragment `fragment` (0-based, < decluster_factor) of the
  // mirror of block `block`.
  BlockLocation SecondaryLocation(const FileInfo& file, int64_t block, int fragment) const {
    TIGER_DCHECK(fragment >= 0 && fragment < shape_.decluster_factor);
    DiskId primary = PrimaryDisk(file, block);
    return BlockLocation{shape_.AdvanceDisk(primary, 1 + fragment), DiskZone::kInner,
                         FragmentBytes(file)};
  }

  // Disks whose primaries this disk helps mirror: the `decluster` disks
  // immediately preceding it.
  std::vector<DiskId> MirroredDisks(DiskId disk) const {
    std::vector<DiskId> out;
    for (int j = 1; j <= shape_.decluster_factor; ++j) {
      out.push_back(shape_.AdvanceDisk(disk, -j));
    }
    return out;
  }

  // Bytes of primary + secondary data a disk holds for the given catalog.
  int64_t BytesOnDisk(const Catalog& catalog, DiskId disk) const;

  // True if every disk's contents fit within `capacity_bytes`.
  bool Fits(const Catalog& catalog, int64_t capacity_bytes) const;

 private:
  SystemShape shape_;
};

}  // namespace tiger

#endif  // SRC_LAYOUT_STRIPING_H_
