"""Walk through the sparse suffix-minimum array, the structure everything
else is built on. It answers two questions about a sparse integer array:
the minimum of any suffix (inf when it is empty), and the last position
holding a value <= v (-1 when there is none), while allocating nodes only
where entries actually live."""

from csst import INF, SuffixMinArray


def shape(arr):
    out = []

    def walk(nd, depth):
        if nd is None:
            return
        out.append(f"{'  ' * depth}node [{nd.start},{nd.end}] min={nd.min} pos={nd.pos}")
        walk(nd.left, depth + 1)
        walk(nd.right, depth + 1)

    walk(arr._root, 0)
    return "\n".join(out) or "  (empty)"


def main():
    arr = SuffixMinArray(64)
    print("empty array over 64 slots:")
    print(shape(arr))

    print("\nscattered updates allocate one node each:")
    for i, v in [(3, 50), (40, 17), (22, 9)]:
        arr.update(i, v)
        print(f"  update({i}, {v}) -> {arr.node_count()} nodes, height {arr.height()}")
    print(shape(arr))

    print("\nqueries:")
    for i in (0, 10, 23, 41):
        print(f"  min_suffix({i}) = {arr.min_suffix(i)}")
    for v in (8, 9, 20, 60):
        print(f"  argleq({v}) = {arr.argleq(v)}")

    print("\na dense run costs one node per entry, like scattered entries:")
    for i in range(40, 44):
        arr.update(i, 100 + i)
    print(f"  {arr.density()} entries, {arr.node_count()} nodes, height {arr.height()}")
    print(shape(arr))

    print("\ndeleting an entry promotes the best remaining descendant:")
    arr.update(22, INF)
    print(shape(arr))

    print("\ngrowing capacity changes no node:")
    before = shape(arr)
    arr.grow(256)
    print(f"  capacity {arr.capacity}, same shape: {shape(arr) == before}")
    print(shape(arr))

    print("\nan entry past the root's range glues the old root under a wider one:")
    arr.update(200, 5)
    print(shape(arr))


if __name__ == "__main__":
    main()
