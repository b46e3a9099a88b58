class GenericLocals {
    boolean shapes(int a, int b, int c, int d) {
        Map<String, List<Integer>> nested = null;
        List<int[]> rows;
        List<String>[] buckets;
        a < b + c > d;
        return nested == null;
    }
}
