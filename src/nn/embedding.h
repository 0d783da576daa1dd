#ifndef AWMOE_NN_EMBEDDING_H_
#define AWMOE_NN_EMBEDDING_H_

#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace awmoe {

/// Learned embedding table [vocab_size, dim]. Index 0 is conventionally the
/// padding id; its row is trained like any other — models mask padded
/// positions instead of relying on the row staying zero.
class EmbeddingTable : public Module {
 public:
  EmbeddingTable(int64_t vocab_size, int64_t dim, Rng* rng,
                 float init_stddev = 0.05f);

  /// ids: batch of indices -> [ids.size(), dim].
  Var Forward(const std::vector<int64_t>& ids) const;

  void CollectParameters(std::vector<Var>* params) const override;

  int64_t vocab_size() const { return table_.rows(); }
  int64_t dim() const { return table_.cols(); }
  const Var& table() const { return table_; }

 private:
  Var table_;
};

}  // namespace awmoe

#endif  // AWMOE_NN_EMBEDDING_H_
