package graph

// BucketInv exposes bucketInv to the external differential tests.
var BucketInv = bucketInv
