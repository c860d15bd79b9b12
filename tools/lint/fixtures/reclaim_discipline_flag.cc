// Fixture for psmr-reclaim-discipline: must produce at least one
// diagnostic. Stub the COS node types the option list names by default.
namespace psmr {
class LockFreeCos {
 public:
  struct Node {
    unsigned long key;
    Node *next;
  };
};
class FineGrainedCos {
 public:
  struct Node {
    int used;
  };
};
}  // namespace psmr

// This file is not one of the owning COS implementations, so direct
// allocation and freeing of node types must be flagged.
psmr::LockFreeCos::Node *steal_a_node() {
  return new psmr::LockFreeCos::Node{0, nullptr};  // flagged
}

void drop_a_node(psmr::LockFreeCos::Node *n) {
  delete n;  // flagged: bypasses the EBR retire path
}

void churn_fine_node() {
  auto *n = new psmr::FineGrainedCos::Node{};  // flagged
  delete n;                                    // flagged
}
