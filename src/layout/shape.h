// System shape: how many cubs, disks, and the mirror decluster factor.
//
// Tiger numbers disks in cub-minor order (§2.2): disk 0 on cub 0, disk 1 on
// cub 1, ..., disk n on cub 0 again. All striding math lives here.

#ifndef SRC_LAYOUT_SHAPE_H_
#define SRC_LAYOUT_SHAPE_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/ids.h"

namespace tiger {

struct SystemShape {
  int num_cubs = 0;
  int disks_per_cub = 0;
  // Number of fragments each block's mirror is split into (§2.3).
  int decluster_factor = 1;

  int TotalDisks() const { return num_cubs * disks_per_cub; }

  bool Valid() const {
    return num_cubs >= 1 && disks_per_cub >= 1 && decluster_factor >= 1 &&
           // Secondaries of a disk must not wrap onto the disk itself.
           decluster_factor < TotalDisks();
  }

  CubId CubOfDisk(DiskId disk) const {
    TIGER_DCHECK(static_cast<int>(disk.value()) < TotalDisks());
    return CubId(disk.value() % static_cast<uint32_t>(num_cubs));
  }

  // Which of its cub's local drives a global disk index maps to.
  int LocalDiskIndex(DiskId disk) const {
    TIGER_DCHECK(static_cast<int>(disk.value()) < TotalDisks());
    return static_cast<int>(disk.value()) / num_cubs;
  }

  DiskId GlobalDiskIndex(CubId cub, int local_disk) const {
    TIGER_DCHECK(static_cast<int>(cub.value()) < num_cubs);
    TIGER_DCHECK(local_disk >= 0 && local_disk < disks_per_cub);
    return DiskId(static_cast<uint32_t>(local_disk * num_cubs) + cub.value());
  }

  DiskId AdvanceDisk(DiskId disk, int64_t steps) const {
    const int64_t total = TotalDisks();
    int64_t v = (static_cast<int64_t>(disk.value()) + steps) % total;
    if (v < 0) {
      v += total;
    }
    return DiskId(static_cast<uint32_t>(v));
  }

  CubId NextCub(CubId cub) const { return AdvanceCub(cub, 1); }

  CubId AdvanceCub(CubId cub, int64_t steps) const {
    int64_t v = (static_cast<int64_t>(cub.value()) + steps) % num_cubs;
    if (v < 0) {
      v += num_cubs;
    }
    return CubId(static_cast<uint32_t>(v));
  }

  // Ring distance from `from` forward to `to` (0 when equal).
  int CubDistance(CubId from, CubId to) const {
    int64_t d = (static_cast<int64_t>(to.value()) - from.value()) % num_cubs;
    if (d < 0) {
      d += num_cubs;
    }
    return static_cast<int>(d);
  }
};

}  // namespace tiger

#endif  // SRC_LAYOUT_SHAPE_H_
